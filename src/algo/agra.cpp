#include "algo/agra.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "audit/gate.hpp"
#include "core/benefit.hpp"
#include "ga/crossover.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace drep::algo {

void AgraConfig::validate() const {
  if (population < 2)
    throw std::invalid_argument("AgraConfig: population must be >= 2");
  if (!(0.0 <= crossover_rate && crossover_rate <= 1.0))
    throw std::invalid_argument("AgraConfig: crossover_rate outside [0,1]");
  if (!(0.0 <= mutation_rate && mutation_rate <= 1.0))
    throw std::invalid_argument("AgraConfig: mutation_rate outside [0,1]");
  if (elite_interval == 0)
    throw std::invalid_argument("AgraConfig: elite_interval must be >= 1");
  common.validate();
  if (mini_gra_generations > 0) mini_gra.validate();
}

namespace {

/// Extracts object k's site mask (column k) from an M·N chromosome.
ga::Chromosome column_mask(const core::Problem& problem,
                           std::span<const std::uint8_t> genes,
                           core::ObjectId k) {
  const std::size_t m = problem.sites();
  const std::size_t n = problem.objects();
  ga::Chromosome mask(m, 0);
  for (core::SiteId i = 0; i < m; ++i)
    mask[i] = genes[static_cast<std::size_t>(i) * n + k];
  return mask;
}

/// Writes a site mask into column k of an M·N chromosome.
void store_column(const core::Problem& problem, ga::Chromosome& genes,
                  core::ObjectId k, std::span<const std::uint8_t> mask) {
  const std::size_t n = problem.objects();
  for (core::SiteId i = 0; i < problem.sites(); ++i)
    genes[static_cast<std::size_t>(i) * n + k] = mask[i];
}

struct MaskIndividual {
  ga::Chromosome mask;
  double fitness = 0.0;
};

/// Fixed stream key the per-object micro-GA RNG children are forked under
/// (keyed by index in the changed-object list); part of the deterministic
/// contract, distinct from GRA's island stream base.
constexpr std::uint64_t kObjectStreamBase = 0x2A;

}  // namespace

MicroGaResult micro_ga(const core::Problem& problem,
                       core::CostEvaluator& evaluator, core::ObjectId object,
                       const ga::Chromosome& current_mask,
                       std::span<const ga::Chromosome> seed_masks,
                       const AgraConfig& config, util::Rng& rng) {
  DREP_SPAN("agra/micro_ga");
  config.validate();
  const std::size_t m = problem.sites();
  if (current_mask.size() != m)
    throw std::invalid_argument("micro_ga: current mask length mismatch");
  const core::SiteId sp = problem.primary(object);
  const double v_prime = evaluator.object_primary_only_cost(object);

  ga::Chromosome primary_mask(m, 0);
  primary_mask[sp] = 1;

  const auto evaluate = [&](MaskIndividual& ind) {
    ind.mask[sp] = 1;
    if (v_prime <= 0.0) {
      ind.fitness = 0.0;
      return;
    }
    ind.fitness = (v_prime - evaluator.object_cost(object, ind.mask)) / v_prime;
    if (ind.fitness < 0.0) {
      // Paper: negative-fitness chromosomes collapse to the primary-only
      // mask with fitness 0.
      ind.mask = primary_mask;
      ind.fitness = 0.0;
    }
  };

  // Initial population: the current scheme, then column extracts of the
  // retained GRA solutions (up to half the population), then random masks.
  std::vector<MaskIndividual> population;
  population.reserve(config.population);
  population.push_back({current_mask, 0.0});
  const std::size_t seeded_target = config.population / 2;
  for (std::size_t s = 0;
       s < seed_masks.size() && population.size() < seeded_target; ++s) {
    if (seed_masks[s].size() != m)
      throw std::invalid_argument("micro_ga: seed mask length mismatch");
    population.push_back({seed_masks[s], 0.0});
  }
  while (population.size() < config.population) {
    ga::Chromosome mask(m, 0);
    for (auto& bit : mask) bit = rng.bernoulli(0.5) ? 1 : 0;
    population.push_back({std::move(mask), 0.0});
  }
  for (auto& ind : population) evaluate(ind);

  const auto fitness_of = [](const std::vector<MaskIndividual>& pop) {
    std::vector<double> fit(pop.size());
    for (std::size_t p = 0; p < pop.size(); ++p) fit[p] = pop[p].fitness;
    return fit;
  };

  MaskIndividual best_ever = population[ga::best_index(fitness_of(population))];

  for (std::size_t gen = 1; gen <= config.generations; ++gen) {
    DREP_COUNT("drep_agra_micro_generations_total", 1);
    // Regular sampling space: stochastic-remainder select Ap parents; pair;
    // single-point crossover with rate 0.8; bit-flip mutation with the
    // primary-bit veto. The resulting strings ARE the next generation.
    const auto picks = ga::stochastic_remainder_selection(
        fitness_of(population), config.population, rng);
    std::vector<MaskIndividual> next;
    next.reserve(picks.size());
    for (const std::size_t pick : picks) next.push_back(population[pick]);

    for (std::size_t t = 0; t + 1 < next.size(); t += 2) {
      if (rng.bernoulli(config.crossover_rate))
        ga::one_point_crossover(next[t].mask, next[t + 1].mask, rng);
    }
    for (auto& ind : next) {
      ga::mutate_bits(ind.mask, config.mutation_rate, rng,
                      [&](std::size_t position, bool now_set) {
                        return now_set || position != sp;  // keep primary
                      });
      evaluate(ind);
    }
    population = std::move(next);

    const auto fit = fitness_of(population);
    const std::size_t best_now = ga::best_index(fit);
    if (population[best_now].fitness > best_ever.fitness)
      best_ever = population[best_now];
    if (gen % config.elite_interval == 0)
      population[ga::worst_index(fit)] = best_ever;
  }

  MicroGaResult result;
  result.best_mask = best_ever.mask;
  result.best_fitness = best_ever.fitness;
  result.population.reserve(population.size());
  for (auto& ind : population) result.population.push_back(std::move(ind.mask));
  return result;
}

std::size_t repair_capacity(const core::Problem& problem, ga::Chromosome& genes,
                            std::span<const double> plw,
                            AgraConfig::Repair strategy, util::Rng& rng) {
  const std::size_t m = problem.sites();
  const std::size_t n = problem.objects();
  if (genes.size() != m * n)
    throw std::invalid_argument("repair_capacity: chromosome length mismatch");

  auto loads = chromosome_loads(problem, genes);
  // Replica degree per object (needed by the Eq. 6 denominator).
  std::vector<double> degree(n, 0.0);
  for (core::SiteId i = 0; i < m; ++i) {
    for (core::ObjectId k = 0; k < n; ++k)
      degree[k] += genes[static_cast<std::size_t>(i) * n + k] != 0 ? 1.0 : 0.0;
  }

  // The exact-ΔD strategy keeps D and the V_k behind it for the genes it
  // repairs, and scores a candidate deallocation by re-deriving one column
  // — O((|R_k|+1)·|row|) — instead of building scheme state.
  std::optional<core::CostEvaluator> evaluator;
  std::vector<double> v;
  double total = 0.0;
  if (strategy == AgraConfig::Repair::kExactDelta) {
    evaluator.emplace(problem);
    v.resize(n);
    total = evaluator->full_cost(genes, v);
  }

  std::size_t deallocations = 0;
  for (core::SiteId i = 0; i < m; ++i) {
    while (loads[i] > problem.capacity(i)) {
      // Candidates: non-primary replicas currently stored at site i.
      core::ObjectId victim = 0;
      bool found = false;
      double victim_score = std::numeric_limits<double>::infinity();
      for (core::ObjectId k = 0; k < n; ++k) {
        if (genes[static_cast<std::size_t>(i) * n + k] == 0) continue;
        if (problem.primary(k) == i) continue;
        double score = 0.0;
        switch (strategy) {
          case AgraConfig::Repair::kEstimator: {
            // Eq. 6, computed directly from the chromosome's degree count.
            const double numerator =
                problem.total_reads(k) + problem.writes(i, k) -
                problem.total_writes(k) +
                problem.reads(i, k) * problem.capacity(i) /
                    problem.object_size(k);
            score = numerator /
                    (std::max(plw[i], 1e-12) * std::max(degree[k], 1.0));
            break;
          }
          case AgraConfig::Repair::kRandom:
            score = rng.uniform01();
            break;
          case AgraConfig::Repair::kExactDelta: {
            // Deallocate the replica whose removal degrades D least: the
            // candidate with the smallest post-removal total wins.
            std::uint8_t& bit = genes[static_cast<std::size_t>(i) * n + k];
            const std::uint8_t held = bit;
            bit = 0;
            score = total - v[k] + evaluator->column_cost(genes, k);
            bit = held;
            break;
          }
        }
        if (!found || score < victim_score) {
          victim_score = score;
          victim = k;
          found = true;
        }
      }
      if (!found) {
        // Only primaries remain; the load excess is structural and the
        // problem generator guarantees this cannot happen.
        throw std::logic_error("repair_capacity: site over-full with primaries only");
      }
      genes[static_cast<std::size_t>(i) * n + victim] = 0;
      loads[i] -= problem.object_size(victim);
      degree[victim] -= 1.0;
      if (evaluator) {
        const core::ObjectId removed[] = {victim};
        total = evaluator->delta_cost(genes, removed, v);
      }
      ++deallocations;
    }
  }
  return deallocations;
}

AgraResult solve_agra(const core::Problem& problem,
                      const ga::Chromosome& current_scheme,
                      std::span<const ga::Chromosome> gra_population,
                      std::span<const core::ObjectId> changed_objects,
                      const AgraConfig& config, util::Rng& rng) {
  DREP_SPAN("agra/solve");
  config.validate();
  const std::size_t m = problem.sites();
  const std::size_t n = problem.objects();
  if (current_scheme.size() != m * n)
    throw std::invalid_argument("solve_agra: current scheme length mismatch");
  DREP_COUNT("drep_agra_runs_total", 1);
  DREP_COUNT("drep_agra_objects_adapted_total", changed_objects.size());

  util::Stopwatch total_watch;
  core::CostEvaluator evaluator(problem);
  const auto plw = core::proportional_link_weights(problem);

  // Working population: the retained GRA population, elite (slot 0) forced
  // to the network's current distribution. When no population was retained,
  // synthesize one from perturbed copies of the current scheme.
  std::vector<ga::Chromosome> working;
  if (!gra_population.empty()) {
    working.assign(gra_population.begin(), gra_population.end());
  } else {
    const std::size_t target =
        std::max<std::size_t>(config.mini_gra.population, 2);
    working.assign(target, current_scheme);
  }
  working[0] = current_scheme;
  for (auto& genes : working) {
    if (genes.size() != m * n)
      throw std::invalid_argument("solve_agra: population chromosome length mismatch");
  }

  std::size_t repairs = 0;
  util::Stopwatch micro_watch;
  const std::size_t half = std::max<std::size_t>(working.size() / 2, 1);

  // Batched micro-GAs (header comment): each changed object is a task that
  // only READS the shared working population (its column-k seed extracts
  // cannot be affected by any other object's transcription) and writes its
  // own MicroTask slot. Every task gets a forked RNG child stream keyed by
  // its index in `changed_objects` and draws its transcription picks from
  // that stream too, so the outcome is a pure function of (problem, config,
  // parent rng) — identical for serial and pooled execution.
  struct MicroTask {
    core::ObjectId object = 0;
    util::Rng rng{0};
    MicroGaResult micro;
    std::vector<std::size_t> picks;  // final-population mask per 2nd-half slot
    bool ran = false;
  };
  std::vector<MicroTask> tasks(changed_objects.size());
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    const core::ObjectId k = changed_objects[j];
    if (k >= n) throw std::out_of_range("solve_agra: changed object out of range");
    tasks[j].object = k;
    tasks[j].rng = rng.fork(kObjectStreamBase + j);
  }
  // The parent advances exactly once so back-to-back calls see fresh streams.
  if (!tasks.empty()) (void)rng.next();

  // One micro-GA per task, through the solvers' one fork-join loop. The
  // time budget is checked as each task starts; objects past the cut keep
  // their current columns.
  const double limit = config.common.time_limit_seconds;
  for_each_task(config.common, tasks.size(), [&](std::size_t, std::size_t j) {
    if (limit > 0.0 && total_watch.seconds() >= limit) return;
    MicroTask& task = tasks[j];
    // CostEvaluator is not thread-safe; every task owns one.
    core::CostEvaluator task_evaluator(problem);
    std::vector<ga::Chromosome> seeds;
    seeds.reserve(working.size());
    for (const auto& genes : working)
      seeds.push_back(column_mask(problem, genes, task.object));
    const ga::Chromosome current_mask =
        column_mask(problem, current_scheme, task.object);
    task.micro = micro_ga(problem, task_evaluator, task.object, current_mask,
                          seeds, config, task.rng);
    task.picks.reserve(working.size() - half);
    for (std::size_t p = half; p < working.size(); ++p)
      task.picks.push_back(task.rng.index(task.micro.population.size()));
    task.ran = true;
  });

  // Deterministic commit, in changed-object order: best mask into the first
  // half (slot 0 = elite included); the task's picked final-population
  // masks into the second half.
  std::size_t adapted = 0;
  for (const MicroTask& task : tasks) {
    if (!task.ran) continue;
    ++adapted;
    for (std::size_t p = 0; p < half; ++p)
      store_column(problem, working[p], task.object, task.micro.best_mask);
    for (std::size_t p = half; p < working.size(); ++p)
      store_column(problem, working[p], task.object,
                   task.micro.population[task.picks[p - half]]);
  }
  const double micro_ga_seconds = micro_watch.seconds();

  // Repair the capacity violations transcription may have introduced.
  for (auto& genes : working)
    repairs += repair_capacity(problem, genes, plw, config.repair, rng);
  DREP_COUNT("drep_agra_transcription_repairs_total", repairs);

  if (config.mini_gra_generations > 0) {
    // Policy (b): polish with a few generations of mini-GRA.
    DREP_SPAN("agra/mini_gra");
    util::Stopwatch mini_watch;
    GraConfig mini = config.mini_gra;
    mini.common.threads = config.common.threads;
    mini.generations = config.mini_gra_generations;
    mini.population = working.size();
    GraResult polished = evolve_population(problem, std::move(working), mini, rng);
    const double mini_gra_seconds = mini_watch.seconds();
    polished.best.elapsed_seconds = total_watch.seconds();
    polished.best.iterations = adapted;
    return AgraResult{std::move(polished.best), std::move(polished.population),
                      micro_ga_seconds, mini_gra_seconds, repairs};
  }

  // Policy (a): stand-alone — pick the best transcripted chromosome.
  std::vector<Individual> population;
  population.reserve(working.size());
  std::size_t best_index = 0;
  double best_fitness = -std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < working.size(); ++p) {
    const double f = evaluator.fitness(working[p]);
    if (f > best_fitness) {
      best_fitness = f;
      best_index = p;
    }
    population.push_back({working[p], f});
  }
  core::ReplicationScheme scheme(problem, population[best_index].genes);
  // Audit (compiled out unless DREP_AUDIT=ON): the scheme assembled from the
  // winning chromosome must be internally consistent after the per-object
  // transcription/repair churn above.
  DREP_AUDIT_ENFORCE("agra/solve", ::drep::audit::check_scheme(scheme));
  AlgorithmResult best = make_result(std::move(scheme), total_watch.seconds());
  best.iterations = adapted;
  return AgraResult{std::move(best), std::move(population), micro_ga_seconds,
                    0.0, repairs};
}

}  // namespace drep::algo
