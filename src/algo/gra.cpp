#include "algo/gra.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "algo/gra_engine.hpp"
#include "algo/sra.hpp"
#include "audit/gate.hpp"
#include "ga/crossover.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace drep::algo {

void GraConfig::validate() const {
  if (population < 2)
    throw std::invalid_argument("GraConfig: population must be >= 2");
  if (!(0.0 <= crossover_rate && crossover_rate <= 1.0))
    throw std::invalid_argument("GraConfig: crossover_rate outside [0,1]");
  if (!(0.0 <= mutation_rate && mutation_rate <= 1.0))
    throw std::invalid_argument("GraConfig: mutation_rate outside [0,1]");
  if (elite_interval == 0)
    throw std::invalid_argument("GraConfig: elite_interval must be >= 1");
  if (!(0.0 <= perturb_fraction && perturb_fraction <= 1.0))
    throw std::invalid_argument("GraConfig: perturb_fraction outside [0,1]");
  if (tournament_arity == 0)
    throw std::invalid_argument("GraConfig: tournament_arity must be >= 1");
  common.validate();
  if (islands == 0)
    throw std::invalid_argument("GraConfig: islands must be >= 1");
  if (islands > 1) {
    if (population / islands < 2)
      throw std::invalid_argument(
          "GraConfig: each island needs a population share of at least 2");
    if (migration_interval == 0)
      throw std::invalid_argument(
          "GraConfig: migration_interval must be >= 1");
    if (migration_count >= population / islands)
      throw std::invalid_argument(
          "GraConfig: migration_count must be smaller than the smallest "
          "island share");
  }
}

ga::Chromosome primary_chromosome(const core::Problem& problem) {
  ga::Chromosome genes(problem.sites() * problem.objects(), 0);
  for (core::ObjectId k = 0; k < problem.objects(); ++k)
    genes[static_cast<std::size_t>(problem.primary(k)) * problem.objects() + k] = 1;
  return genes;
}

std::vector<double> chromosome_loads(const core::Problem& problem,
                                     std::span<const std::uint8_t> genes) {
  const std::size_t n = problem.objects();
  if (genes.size() != problem.sites() * n)
    throw std::invalid_argument("chromosome_loads: length mismatch");
  std::vector<double> loads(problem.sites(), 0.0);
  for (core::SiteId i = 0; i < problem.sites(); ++i)
    loads[i] = ga::gene_load(genes.subspan(static_cast<std::size_t>(i) * n, n),
                             problem.object_sizes());
  return loads;
}

bool chromosome_valid(const core::Problem& problem,
                      std::span<const std::uint8_t> genes) {
  const auto loads = chromosome_loads(problem, genes);
  for (core::SiteId i = 0; i < problem.sites(); ++i) {
    if (loads[i] > problem.capacity(i)) return false;
  }
  return true;
}

std::vector<util::Rng> fork_island_rngs(util::Rng& rng, std::size_t islands) {
  // Fork every child before the parent advances; the parent then steps
  // exactly once so back-to-back solves differ.
  std::vector<util::Rng> rngs;
  rngs.reserve(islands);
  for (std::size_t i = 0; i < islands; ++i)
    rngs.push_back(rng.fork(kIslandStreamBase + i));
  (void)rng.next();
  return rngs;
}

std::vector<GraConfig> island_plan_configs(const GraConfig& config) {
  const std::size_t k = config.islands;
  std::vector<GraConfig> configs(k, config);
  const std::size_t base = config.population / k;
  const std::size_t extra = config.population % k;
  for (std::size_t i = 0; i < k; ++i) {
    configs[i].islands = 1;
    configs[i].population = base + (i < extra ? 1 : 0);
    configs[i].common.threads = 1;
    configs[i].common.time_limit_seconds = 0.0;
  }
  return configs;
}

namespace {

/// Perturbs `fraction` of the positions, keeping validity: an on-flip must
/// fit the site's remaining capacity, an off-flip must not hit a primary.
void perturb_chromosome(const core::Problem& problem, ga::Chromosome& genes,
                        double fraction, util::Rng& rng) {
  const std::size_t n = problem.objects();
  auto loads = chromosome_loads(problem, genes);
  const auto flips =
      static_cast<std::size_t>(fraction * static_cast<double>(genes.size()));
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t position = rng.index(genes.size());
    const auto site = static_cast<core::SiteId>(position / n);
    const auto object = static_cast<core::ObjectId>(position % n);
    if (genes[position] == 0) {
      const double size = problem.object_size(object);
      if (loads[site] + size <= problem.capacity(site)) {
        genes[position] = 1;
        loads[site] += size;
      }
    } else if (problem.primary(object) != site) {
      genes[position] = 0;
      loads[site] -= problem.object_size(object);
    }
  }
}

}  // namespace

std::vector<ga::Chromosome> sra_seeded_population(const core::Problem& problem,
                                                  std::size_t count,
                                                  double perturb_fraction,
                                                  util::Rng& rng) {
  std::vector<ga::Chromosome> population;
  population.reserve(count);
  SraConfig seed_config;
  seed_config.site_order = SraConfig::SiteOrder::kRandom;
  for (std::size_t p = 0; p < count; ++p) {
    AlgorithmResult seeded = solve_sra(problem, seed_config, rng);
    population.push_back(seeded.scheme.matrix());
  }
  // Half of the population is randomly perturbed to diversify the building
  // blocks (paper Section 4, "Generation of the initial Population").
  for (std::size_t p = count / 2; p < count; ++p)
    perturb_chromosome(problem, population[p], perturb_fraction, rng);
  return population;
}

std::vector<ga::Chromosome> random_population(const core::Problem& problem,
                                              std::size_t count,
                                              util::Rng& rng) {
  const std::size_t n = problem.objects();
  std::vector<std::size_t> order(problem.sites() * n);
  std::vector<ga::Chromosome> population;
  population.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    ga::Chromosome genes = primary_chromosome(problem);
    auto loads = chromosome_loads(problem, genes);
    for (std::size_t pos = 0; pos < order.size(); ++pos) order[pos] = pos;
    rng.shuffle(order);
    for (const std::size_t position : order) {
      if (genes[position] != 0 || !rng.bernoulli(0.5)) continue;
      const auto site = static_cast<core::SiteId>(position / n);
      const auto object = static_cast<core::ObjectId>(position % n);
      const double size = problem.object_size(object);
      if (loads[site] + size <= problem.capacity(site)) {
        genes[position] = 1;
        loads[site] += size;
      }
    }
    population.push_back(std::move(genes));
  }
  return population;
}

namespace {

/// The island-model driver (DESIGN.md Section 10). Pass an empty `initial`
/// to let every island seed itself (solve_gra), or a caller population to
/// split into contiguous island shares (evolve_population).
///
/// Determinism: each island runs single-threaded on its own forked RNG
/// stream and its own evaluators; islands synchronize at epoch barriers
/// (every migration_interval generations) where the ring exchange happens
/// on the driver thread in island order. Nothing an island computes depends
/// on scheduling, so the result is a pure function of (problem, config,
/// seed) for every thread count.
GraResult solve_gra_islands(const core::Problem& problem,
                            const GraConfig& config, util::Rng& rng,
                            std::vector<ga::Chromosome> initial) {
  DREP_SPAN("gra/solve");
  util::Stopwatch watch;
  const std::size_t k = config.islands;

  std::vector<util::Rng> rngs = fork_island_rngs(rng, k);
  std::vector<GraConfig> configs = island_plan_configs(config);

  // Contiguous split of a caller-supplied initial population.
  std::vector<std::vector<ga::Chromosome>> initials(k);
  if (!initial.empty()) {
    const std::size_t seed_base = initial.size() / k;
    const std::size_t seed_extra = initial.size() % k;
    auto next = initial.begin();
    for (std::size_t i = 0; i < k; ++i) {
      const auto share =
          static_cast<std::ptrdiff_t>(seed_base + (i < seed_extra ? 1 : 0));
      initials[i].assign(std::make_move_iterator(next),
                         std::make_move_iterator(next + share));
      next += share;
    }
  }

  std::vector<std::optional<GraEngine>> engines(k);

  // Seed + evaluate generation 0, one task per island.
  for_each_task(config.common, k, [&](std::size_t, std::size_t i) {
    std::vector<ga::Chromosome> seed = std::move(initials[i]);
    if (seed.empty()) {
      DREP_SPAN("gra/seed");
      seed = configs[i].init == GraConfig::Init::kSraSeeded
                 ? sra_seeded_population(problem, configs[i].population,
                                         configs[i].perturb_fraction, rngs[i])
                 : random_population(problem, configs[i].population, rngs[i]);
    }
    engines[i].emplace(problem, configs[i], rngs[i]);
    engines[i]->init(std::move(seed));
  });

  // Epochs: all islands advance migration_interval generations in parallel,
  // then the driver runs the ring exchange i -> (i+1) mod k.
  const double limit = config.common.time_limit_seconds;
  std::size_t done = 0;
  while (done < config.generations) {
    if (limit > 0.0 && watch.seconds() >= limit) break;
    const std::size_t step =
        std::min(config.migration_interval, config.generations - done);
    for_each_task(config.common, k, [&](std::size_t, std::size_t i) {
      (void)engines[i]->advance(step);
    });
    done += step;
    DREP_COUNT("drep_gra_island_generations_total", step * k);
    if (done >= config.generations || config.migration_count == 0) continue;
    // Simultaneous exchange: collect every island's emigrants before any
    // island accepts immigrants, so the ring sees one coherent snapshot.
    std::vector<std::vector<GraEngine::EvalIndividual>> migrants(k);
    for (std::size_t i = 0; i < k; ++i)
      migrants[i] = engines[i]->emigrants(config.migration_count);
    for (std::size_t i = 0; i < k; ++i)
      engines[(i + 1) % k]->immigrate(std::move(migrants[i]));
    DREP_COUNT("drep_gra_migrations_total", 1);
  }

  // Merge: winner by lowest cost (ties to the lowest island id), populations
  // concatenated in island order, history entrywise max across islands.
  std::vector<std::optional<GraResult>> results(k);
  for_each_task(config.common, k, [&](std::size_t, std::size_t i) {
    results[i] = engines[i]->finish();
  });
  std::size_t winner = 0;
  for (std::size_t i = 1; i < k; ++i) {
    if (results[i]->best.cost < results[winner]->best.cost) winner = i;
  }
  GraResult merged{std::move(results[winner]->best),
                   {},
                   std::move(results[0]->best_fitness_history),
                   0,
                   0.0};
  merged.best.elapsed_seconds = watch.seconds();
  merged.best.iterations = done;
  merged.population.reserve(config.population);
  for (std::size_t i = 0; i < k; ++i) {
    GraResult& r = *results[i];
    merged.population.insert(merged.population.end(),
                             std::make_move_iterator(r.population.begin()),
                             std::make_move_iterator(r.population.end()));
    merged.evaluations += r.evaluations;
    merged.full_equivalent_evaluations += r.full_equivalent_evaluations;
    if (i > 0) {
      for (std::size_t g = 0; g < merged.best_fitness_history.size(); ++g) {
        merged.best_fitness_history[g] = std::max(
            merged.best_fitness_history[g], r.best_fitness_history[g]);
      }
    }
  }
  GraEngine::set_fitness_gauges(engines);
  return merged;
}

}  // namespace

GraResult solve_gra(const core::Problem& problem, const GraConfig& config,
                    util::Rng& rng) {
  config.validate();
  if (config.islands > 1) return solve_gra_islands(problem, config, rng, {});
  std::vector<ga::Chromosome> initial;
  {
    DREP_SPAN("gra/seed");
    initial = config.init == GraConfig::Init::kSraSeeded
                  ? sra_seeded_population(problem, config.population,
                                          config.perturb_fraction, rng)
                  : random_population(problem, config.population, rng);
  }
  GraEngine engine(problem, config, rng);
  GraResult result = engine.run(std::move(initial));
  GraEngine::set_fitness_gauges(std::array{&engine});
  return result;
}

GraResult evolve_population(const core::Problem& problem,
                            std::vector<ga::Chromosome> initial,
                            const GraConfig& config, util::Rng& rng) {
  config.validate();
  if (config.islands > 1) {
    if (initial.size() < 2 * config.islands)
      throw std::invalid_argument(
          "evolve_population: need at least 2 chromosomes per island");
    return solve_gra_islands(problem, config, rng, std::move(initial));
  }
  if (initial.size() < 2)
    throw std::invalid_argument("evolve_population: need at least 2 chromosomes");
  GraEngine engine(problem, config, rng);
  GraResult result = engine.run(std::move(initial));
  GraEngine::set_fitness_gauges(std::array{&engine});
  return result;
}

}  // namespace drep::algo
