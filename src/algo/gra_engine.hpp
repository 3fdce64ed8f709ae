#pragma once
// GraEngine — the steppable GRA evolution core behind solve_gra (paper
// Section 4; island model in DESIGN.md Section 10).
//
// Historically this class was an implementation detail of gra.cpp; the
// decentralized layer (src/dist/) promotes it to a public API so a DES node
// can own one island and advance it a migration epoch at a time from inside
// an event handler, decoupled from the thread-pool island driver. The
// stepping contract is exactly what solve_gra_islands composes:
//
//   init(initial)        adopt + evaluate generation 0
//   advance(step)        run up to `step` generations (time-limit aware)
//   emigrants(count)     copies of the fittest individuals, fittest first
//   immigrate(migrants)  replace the weakest with the migrants
//   finish()             audit the winner, build the GraResult
//
// Any driver that issues the same call sequence with the same config and
// RNG stream produces bit-identical state — this is the equivalence lever
// the decentralized GA's perfect-network conformance proof rests on.
//
// island_plan_configs / fork_island_rngs pin the island split and the RNG
// fork discipline in ONE place, shared by the centralized island driver and
// the decentralized DES driver so the two can never diverge.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "algo/gra.hpp"
#include "audit/gate.hpp"
#include "core/cost_model.hpp"
#include "ga/crossover.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace drep::algo {

/// Fixed stream key island RNG children are forked under; any constant works
/// as long as it never changes (it is part of the deterministic contract).
inline constexpr std::uint64_t kIslandStreamBase = 0x15;

/// Per-island RNG child streams, forked before the parent advances; the
/// parent then steps exactly once so back-to-back solves differ. Every
/// island driver (centralized or DES) MUST obtain its streams through this
/// helper — the fork order is part of the bit-for-bit contract.
[[nodiscard]] std::vector<util::Rng> fork_island_rngs(util::Rng& rng,
                                                      std::size_t islands);

/// Per-island configs derived from an islands=K config: the population
/// share (near-equal split, earlier islands take the remainder), islands=1,
/// threads=1 (serial evaluation: the island is the unit of parallelism),
/// and no per-island time limit — drivers enforce the budget at epoch
/// barriers so the island histories stay aligned.
[[nodiscard]] std::vector<GraConfig> island_plan_configs(
    const GraConfig& config);

/// Shared machinery for one GRA evolution run.
///
/// Evaluation is incremental: every individual carries, alongside its genes,
/// the per-object cost vector V_k backing its fitness. Children produced by
/// mutation or crossover inherit the parent's V_k plus the set of objects
/// their genes changed ("touched"), so evaluating them re-derives only the
/// touched objects through the per-worker CostEvaluator instances — the
/// totals stay bit-identical to a full evaluation (see CostEvaluator), so
/// results do not depend on which path evaluated a chromosome.
///
/// The engine keeps references to the problem, config, and RNG: the caller
/// must keep all three alive and unmoved for the engine's lifetime.
class GraEngine {
 public:
  GraEngine(const core::Problem& problem, const GraConfig& config,
            util::Rng& rng)
      : problem_(problem),
        config_(config),
        rng_(rng),
        primary_(primary_chromosome(problem)) {
    const std::size_t workers =
        config.common.threads == 1 ? 1 : util::ThreadPool::shared().size();
    evaluators_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      evaluators_.emplace_back(problem);
    d_prime_ = evaluators_[0].primary_only_cost();
    // Kernel-derived per-object costs of the primary-only chromosome, shared
    // by every individual the negative-fitness rule resets.
    primary_v_.resize(problem.objects());
    (void)evaluators_[0].full_cost(primary_, primary_v_);
  }

  /// The classic single-population run: the stepping API below composed
  /// end to end, bit-identical to the pre-island GRA.
  GraResult run(std::vector<ga::Chromosome> initial) {
    DREP_SPAN("gra/solve");
    init(std::move(initial));
    advance(config_.generations);
    return finish();
  }

  /// An Individual plus the incremental-evaluation state that backs it: the
  /// per-object costs V_k of the last evaluated genes (empty = never
  /// evaluated) and the objects whose bits changed since ("touched").
  struct EvalIndividual {
    Individual ind;
    std::vector<double> v;
    std::vector<core::ObjectId> touched;
  };

  /// Adopts and evaluates the initial population; generation 0 of the
  /// history. Restarts the engine's wall clock.
  void init(std::vector<ga::Chromosome> initial) {
    watch_.reset();
    population_ = adopt(std::move(initial));
    evaluate(population_);
    best_ever_ = population_[ga::best_index(fitness_of(population_))];
    history_.clear();
    history_.reserve(config_.generations + 1);
    history_.push_back(best_ever_.ind.fitness);
  }

  /// Runs up to `generations` more generations (stopping early at the
  /// common.time_limit_seconds budget); returns the number actually run.
  std::size_t advance(std::size_t generations) {
    const double limit = config_.common.time_limit_seconds;
    std::size_t run_count = 0;
    for (; run_count < generations; ++run_count) {
      if (limit > 0.0 && watch_.seconds() >= limit) break;
      step_generation();
    }
    return run_count;
  }

  /// Copies of the `count` fittest individuals (ties break to the lowest
  /// index), fittest first — the island's emigrants.
  std::vector<EvalIndividual> emigrants(std::size_t count) const {
    count = std::min(count, population_.size());
    std::vector<std::size_t> order(population_.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return population_[a].ind.fitness >
                              population_[b].ind.fitness;
                     });
    std::vector<EvalIndividual> out;
    out.reserve(count);
    for (std::size_t p = 0; p < count; ++p) out.push_back(population_[order[p]]);
    return out;
  }

  /// Replaces the population's weakest individuals with the migrants (one
  /// per migrant, weakest first, ties to the lowest index). Migrant V_k
  /// caches stay valid: CostEvaluator totals are bit-exact regardless of
  /// which island's evaluator produced them.
  void immigrate(std::vector<EvalIndividual> migrants) {
    std::vector<std::size_t> order(population_.size());
    for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return population_[a].ind.fitness <
                              population_[b].ind.fitness;
                     });
    const std::size_t count = std::min(migrants.size(), population_.size());
    for (std::size_t m = 0; m < count; ++m) {
      if (migrants[m].ind.fitness > best_ever_.ind.fitness)
        best_ever_ = migrants[m];
      population_[order[m]] = std::move(migrants[m]);
    }
    DREP_COUNT("drep_gra_migrants_total", count);
  }

  /// Builds the result from the current state; audits the winner's V_k
  /// cache (per island when used by the island driver).
  GraResult finish() {
    // One division of the summed counts: which lane evaluated which
    // individual varies from run to run, the total does not.
    std::size_t recomputed = 0;
    for (const auto& evaluator : evaluators_)
      recomputed += evaluator.objects_recomputed();
    const std::size_t n = problem_.objects();
    const double full_equivalents =
        n == 0 ? 0.0
               : static_cast<double>(recomputed) / static_cast<double>(n);
    std::vector<Individual> final_population;
    final_population.reserve(population_.size());
    for (auto& e : population_) final_population.push_back(std::move(e.ind));

    core::ReplicationScheme scheme(problem_, best_ever_.ind.genes);
    // Audit (compiled out unless DREP_AUDIT=ON): the winner's inherited V_k
    // cache must match a from-scratch evaluation of its genes, and the
    // scheme built from them must be internally consistent.
    DREP_AUDIT_ENFORCE(
        "gra/run",
        ::drep::audit::merge(
            ::drep::audit::check_object_cost_cache(
                problem_, best_ever_.ind.genes, best_ever_.v),
            ::drep::audit::check_scheme(scheme)));
    AlgorithmResult best = make_result(std::move(scheme), watch_.seconds());
    best.iterations = generation_;
    return GraResult{std::move(best), std::move(final_population),
                     std::move(history_), evaluations_, full_equivalents};
  }

  /// Sets the drep_gra_best_fitness and drep_gra_mean_fitness gauges once
  /// per solve, from its driver after the merge: the best fitness any
  /// engine found, and the mean fitness of the engines' last generations
  /// before elitism, summed in engine order. Engines never set them, so a
  /// pooled island solve reports the same values on every run. Engines
  /// that ran no generation are skipped. `engines` is a range of anything
  /// `->` reaches a GraEngine through (pointers, optionals).
  template <class Engines>
  static void set_fitness_gauges(const Engines& engines) {
    double best = 0.0;
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& engine : engines) {
      if (engine->generation_ == 0) continue;
      best = std::max(best, engine->best_ever_.ind.fitness);
      sum += engine->fitness_sum_;
      count += engine->population_.size();
    }
    if (count == 0) return;
    DREP_GAUGE_SET("drep_gra_best_fitness", best);
    DREP_GAUGE_SET("drep_gra_mean_fitness", sum / static_cast<double>(count));
  }

 private:
  void step_generation() {
    ++generation_;
    DREP_SPAN("gra/generation");
    DREP_COUNT("drep_gra_generations_total", 1);
    if (config_.selection == GraConfig::SelectionScheme::kSgaRoulette) {
      population_ = sga_generation(population_);
    } else {
      population_ = mu_plus_lambda_generation(population_);
    }
    const auto fit = fitness_of(population_);
    const std::size_t best_now = ga::best_index(fit);
    if (population_[best_now].ind.fitness > best_ever_.ind.fitness)
      best_ever_ = population_[best_now];
    fitness_sum_ = 0.0;
    for (const double f : fit) fitness_sum_ += f;
    // Elitism: the best-found-so-far chromosome replaces the current
    // worst, once every elite_interval generations (paper: 5, to avoid
    // premature convergence).
    if (generation_ % config_.elite_interval == 0)
      population_[ga::worst_index(fit)] = best_ever_;
    history_.push_back(best_ever_.ind.fitness);
  }

  std::vector<EvalIndividual> adopt(std::vector<ga::Chromosome> initial) {
    const std::size_t length = problem_.sites() * problem_.objects();
    std::vector<EvalIndividual> population;
    population.reserve(initial.size());
    for (auto& genes : initial) {
      if (genes.size() != length)
        throw std::invalid_argument("GRA: chromosome length mismatch");
      // Force the immovable primary copies.
      for (core::ObjectId k = 0; k < problem_.objects(); ++k) {
        genes[static_cast<std::size_t>(problem_.primary(k)) *
                  problem_.objects() + k] = 1;
      }
      if (!chromosome_valid(problem_, genes))
        throw std::invalid_argument("GRA: initial chromosome violates capacity");
      population.push_back({{std::move(genes), 0.0}, {}, {}});
    }
    return population;
  }

  static std::vector<double> fitness_of(
      const std::vector<EvalIndividual>& pop) {
    std::vector<double> fit(pop.size());
    for (std::size_t p = 0; p < pop.size(); ++p) fit[p] = pop[p].ind.fitness;
    return fit;
  }

  /// Computes fitness for every individual; f < 0 resets the chromosome to
  /// the primary-only allocation with f = 0 (paper Section 4). Individuals
  /// with an inherited V_k cache and few touched objects take the delta
  /// path; everything else pays one full evaluation. Both paths produce
  /// bit-identical totals and neither depends on the lane, so the outcome
  /// is the same for any pool size and any claim order, serial included.
  /// Each lane owns one CostEvaluator; lanes claim individuals one at a
  /// time, so a cluster of full evaluations does not load one lane.
  void evaluate(std::vector<EvalIndividual>& population) {
    DREP_SPAN("gra/evaluate");
    evaluations_ += population.size();
    DREP_COUNT("drep_gra_evaluations_total", population.size());
    const std::size_t n = problem_.objects();
    const auto body = [this, &population, n](std::size_t lane, std::size_t p) {
      EvalIndividual& e = population[p];
      core::CostEvaluator& evaluator = evaluators_[lane];
      double cost;
      if (!e.v.empty()) {
        std::sort(e.touched.begin(), e.touched.end());
        e.touched.erase(std::unique(e.touched.begin(), e.touched.end()),
                        e.touched.end());
        // Past half the objects a delta pass would outwork a full one.
        if (e.touched.size() * 2 < n) {
          DREP_COUNT("drep_gra_delta_evaluations_total", 1);
          cost = evaluator.delta_cost(e.ind.genes, e.touched, e.v);
        } else {
          DREP_COUNT("drep_gra_full_evaluations_total", 1);
          cost = evaluator.full_cost(e.ind.genes, e.v);
        }
      } else {
        e.v.resize(n);
        DREP_COUNT("drep_gra_full_evaluations_total", 1);
        cost = evaluator.full_cost(e.ind.genes, e.v);
      }
      e.touched.clear();
      e.ind.fitness = d_prime_ <= 0.0 ? 0.0 : (d_prime_ - cost) / d_prime_;
      if (e.ind.fitness < 0.0) {
        DREP_COUNT("drep_gra_resets_total", 1);
        e.ind.genes = primary_;
        e.ind.fitness = 0.0;
        e.v = primary_v_;
      }
    };
    for_each_task(config_.common, population.size(), body);
  }

  /// Exchanges, within gene [gene_begin, gene_end), the portion that the
  /// crossover did NOT already exchange — after which the gene in each child
  /// comes wholly from one (valid) parent.
  void exchange_uncrossed_portion(ga::Chromosome& a, ga::Chromosome& b,
                                  std::size_t gene_begin, std::size_t gene_end,
                                  const ga::CrossoverCut& cut) const {
    const std::size_t lo = std::clamp(cut.lo, gene_begin, gene_end);
    const std::size_t hi = std::clamp(cut.hi, gene_begin, gene_end);
    if (cut.middle) {
      ga::swap_range(a, b, gene_begin, lo);
      ga::swap_range(a, b, hi, gene_end);
    } else {
      ga::swap_range(a, b, lo, hi);
    }
  }

  void repair_gene(ga::Chromosome& a, ga::Chromosome& b,
                   const EvalIndividual& parent_a,
                   const EvalIndividual& parent_b, std::size_t gene,
                   const ga::CrossoverCut& cut) const {
    const std::size_t n = problem_.objects();
    const std::size_t gene_begin = gene * n;
    const std::size_t gene_end = gene_begin + n;
    const auto site = static_cast<core::SiteId>(gene);
    const auto gene_load = [&](const ga::Chromosome& genes) {
      return ga::gene_load(std::span(genes).subspan(gene_begin, n),
                           problem_.object_sizes());
    };
    const double capacity = problem_.capacity(site);
    const bool invalid =
        gene_load(a) > capacity || gene_load(b) > capacity;
    if (!invalid) return;
    DREP_COUNT("drep_gra_gene_repairs_total", 1);
    if (config_.crossover == GraConfig::CrossoverKind::kUniform) {
      // Scattered exchange: restore the gene from the parents.
      const ga::Chromosome& genes_a = parent_a.ind.genes;
      const ga::Chromosome& genes_b = parent_b.ind.genes;
      std::copy(genes_a.begin() + static_cast<std::ptrdiff_t>(gene_begin),
                genes_a.begin() + static_cast<std::ptrdiff_t>(gene_end),
                a.begin() + static_cast<std::ptrdiff_t>(gene_begin));
      std::copy(genes_b.begin() + static_cast<std::ptrdiff_t>(gene_begin),
                genes_b.begin() + static_cast<std::ptrdiff_t>(gene_end),
                b.begin() + static_cast<std::ptrdiff_t>(gene_begin));
      return;
    }
    exchange_uncrossed_portion(a, b, gene_begin, gene_end, cut);
  }

  /// Wraps a freshly produced chromosome as a child of `parent`: the child
  /// inherits the parent's V_k cache and pending touched set, extended with
  /// the objects where its genes differ from the parent's.
  EvalIndividual child_of(ga::Chromosome genes, const EvalIndividual& parent) {
    EvalIndividual child{{std::move(genes), 0.0}, {}, {}};
    if (parent.v.empty()) return child;  // no base: full evaluation later
    child.v = parent.v;
    child.touched = parent.touched;
    const std::size_t n = problem_.objects();
    for (const std::size_t column :
         ga::differing_columns(child.ind.genes, parent.ind.genes, n))
      child.touched.push_back(static_cast<core::ObjectId>(column));
    return child;
  }

  /// Applies the configured crossover to copies of the two parents and
  /// repairs the boundary genes; appends both children.
  void crossed_children(const EvalIndividual& parent_a,
                        const EvalIndividual& parent_b,
                        std::vector<EvalIndividual>& out) {
    ga::Chromosome a = parent_a.ind.genes;
    ga::Chromosome b = parent_b.ind.genes;
    ga::CrossoverCut cut;
    switch (config_.crossover) {
      case GraConfig::CrossoverKind::kTwoPointRepair:
        cut = ga::two_point_crossover(a, b, rng_);
        break;
      case GraConfig::CrossoverKind::kOnePoint:
        cut = ga::one_point_crossover(a, b, rng_);
        break;
      case GraConfig::CrossoverKind::kUniform:
        cut = ga::uniform_crossover(a, b, rng_);
        break;
    }
    const std::size_t n = problem_.objects();
    const std::size_t genes_total = problem_.sites();
    if (config_.crossover == GraConfig::CrossoverKind::kUniform) {
      for (std::size_t gene = 0; gene < genes_total; ++gene)
        repair_gene(a, b, parent_a, parent_b, gene, cut);
    } else {
      // Only the (at most two) genes containing the cut points can break.
      const std::size_t first = std::min(cut.lo / n, genes_total - 1);
      const std::size_t second =
          std::min(cut.hi == 0 ? 0 : (cut.hi - 1) / n, genes_total - 1);
      repair_gene(a, b, parent_a, parent_b, first, cut);
      if (second != first) repair_gene(a, b, parent_a, parent_b, second, cut);
    }
    out.push_back(child_of(std::move(a), parent_a));
    out.push_back(child_of(std::move(b), parent_b));
  }

  /// Mutated copy of a parent, with the storage / primary-copy veto. The
  /// kept flips extend the child's touched set for delta evaluation.
  EvalIndividual mutated(const EvalIndividual& parent) {
    EvalIndividual child{{parent.ind.genes, 0.0}, parent.v, parent.touched};
    const std::size_t n = problem_.objects();
    auto loads = chromosome_loads(problem_, child.ind.genes);
    ga::mutate_bits(child.ind.genes, config_.mutation_rate, rng_,
                    [&](std::size_t position, bool now_set) {
                      const auto site = static_cast<core::SiteId>(position / n);
                      const auto object =
                          static_cast<core::ObjectId>(position % n);
                      const double size = problem_.object_size(object);
                      if (now_set) {
                        if (loads[site] + size > problem_.capacity(site))
                          return false;
                        loads[site] += size;
                        return true;
                      }
                      if (problem_.primary(object) == site) return false;
                      loads[site] -= size;
                      return true;
                    },
                    &flip_positions_);
    if (!child.v.empty()) {
      for (const std::size_t position : flip_positions_)
        child.touched.push_back(static_cast<core::ObjectId>(position % n));
    }
    return child;
  }

  /// The paper's (µ+λ) generation: parents plus crossover and mutation
  /// subpopulations compete for the Np slots via stochastic remainder.
  std::vector<EvalIndividual> mu_plus_lambda_generation(
      std::vector<EvalIndividual>& parents) {
    std::vector<EvalIndividual> pool = std::move(parents);
    const std::size_t mu = pool.size();

    std::vector<EvalIndividual> offspring;
    offspring.reserve(2 * mu);
    {
      DREP_SPAN("gra/crossover");
      const auto pairing = ga::crossover_pairing(mu, rng_);
      for (std::size_t t = 0; t + 1 < pairing.size(); t += 2) {
        if (rng_.bernoulli(config_.crossover_rate))
          crossed_children(pool[pairing[t]], pool[pairing[t + 1]], offspring);
      }
    }
    {
      DREP_SPAN("gra/mutate");
      for (std::size_t p = 0; p < mu; ++p)
        offspring.push_back(mutated(pool[p]));
    }
    evaluate(offspring);

    DREP_SPAN("gra/select");
    pool.insert(pool.end(), std::make_move_iterator(offspring.begin()),
                std::make_move_iterator(offspring.end()));
    const auto pool_fitness = fitness_of(pool);
    std::vector<std::size_t> picks;
    switch (config_.selection) {
      case GraConfig::SelectionScheme::kMuPlusLambdaTournament:
        picks = ga::tournament_selection(pool_fitness, config_.population,
                                         config_.tournament_arity, rng_);
        break;
      case GraConfig::SelectionScheme::kMuPlusLambdaRank:
        picks = ga::rank_selection(pool_fitness, config_.population, rng_);
        break;
      default:
        picks = ga::stochastic_remainder_selection(pool_fitness,
                                                   config_.population, rng_);
        break;
    }
    std::vector<EvalIndividual> next;
    next.reserve(picks.size());
    for (const std::size_t pick : picks) next.push_back(pool[pick]);
    return next;
  }

  /// Holland's SGA generation (ablation): roulette-select Np parents, pair,
  /// crossover with µc, mutate everything, and that IS the next generation.
  std::vector<EvalIndividual> sga_generation(
      std::vector<EvalIndividual>& parents) {
    std::vector<EvalIndividual> mating;
    {
      DREP_SPAN("gra/select");
      const auto picks = ga::roulette_selection(fitness_of(parents),
                                                config_.population, rng_);
      mating.reserve(picks.size());
      for (const std::size_t pick : picks) mating.push_back(parents[pick]);
    }

    std::vector<EvalIndividual> next;
    next.reserve(mating.size() + 1);
    {
      DREP_SPAN("gra/crossover");
      for (std::size_t t = 0; t + 1 < mating.size(); t += 2) {
        if (rng_.bernoulli(config_.crossover_rate)) {
          crossed_children(mating[t], mating[t + 1], next);
        } else {
          next.push_back(mating[t]);
          next.push_back(mating[t + 1]);
        }
      }
      if (mating.size() % 2 != 0) next.push_back(mating.back());
    }
    {
      DREP_SPAN("gra/mutate");
      for (auto& ind : next) ind = mutated(ind);
    }
    evaluate(next);
    return next;
  }

  const core::Problem& problem_;
  const GraConfig& config_;
  util::Rng& rng_;
  ga::Chromosome primary_;
  std::vector<core::CostEvaluator> evaluators_;
  double d_prime_ = 0.0;
  std::vector<double> primary_v_;
  std::vector<std::size_t> flip_positions_;  // mutated() scratch, main thread
  std::size_t evaluations_ = 0;

  // Stepping state (init / advance / finish).
  util::Stopwatch watch_;
  std::vector<EvalIndividual> population_;
  EvalIndividual best_ever_;
  std::vector<double> history_;
  std::size_t generation_ = 0;
  double fitness_sum_ = 0.0;  // the last generation's, before elitism
};

}  // namespace drep::algo
