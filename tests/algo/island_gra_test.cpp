// Determinism suite for the island-model GRA and the batched AGRA
// micro-GA pass (DESIGN.md Section 10).
//
// The contract under test: every solve is a pure function of
// (problem, config, seed) — islands=1 reproduces the single-population GRA
// bit-for-bit (pinned against pre-island golden values), and islands=K /
// batched AGRA are bit-identical across runs and across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "algo/agra.hpp"
#include "algo/gra.hpp"
#include "obs/metrics.hpp"
#include "testing/builders.hpp"
#include "util/thread_pool.hpp"

namespace drep::algo {
namespace {

/// FNV-1a over the scheme matrix — a compact bit-exact fingerprint.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t population_hash(const std::vector<Individual>& population) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Individual& ind : population) {
    for (const std::uint8_t b : ind.genes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

GraConfig island_config() {
  GraConfig config;
  config.population = 16;
  config.generations = 15;
  config.islands = 4;
  config.migration_interval = 5;
  config.migration_count = 1;
  return config;
}

// islands=1 must stay bit-exactly the pre-island single-population GRA.
// Golden values were recorded on the commit before the island driver landed
// (same problem, config, and seed); any drift here is a compat break.
TEST(IslandGra, IslandsOneReproducesLegacyGolden) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config;
  config.population = 12;
  config.generations = 15;
  util::Rng rng(14);
  const GraResult result = solve_gra(problem, config, rng);

  EXPECT_DOUBLE_EQ(result.best.cost, 197401.0);
  EXPECT_EQ(result.evaluations, 356u);
  EXPECT_DOUBLE_EQ(result.full_equivalent_evaluations, 100.73333333333333);
  EXPECT_EQ(fnv1a(result.best.scheme.matrix()), 16513427745741207910ULL);
  ASSERT_EQ(result.best_fitness_history.size(), 16u);
  for (const double f : result.best_fitness_history)
    EXPECT_DOUBLE_EQ(f, 0.51463465009122067);
  EXPECT_EQ(result.best.iterations, 15u);
}

// Same seed, same config -> identical everything, run to run.
TEST(IslandGra, SameSeedIsBitIdenticalAcrossRuns) {
  const core::Problem problem = testing::small_random_problem(13);
  const GraConfig config = island_config();
  util::Rng rng_a(14);
  util::Rng rng_b(14);
  const GraResult a = solve_gra(problem, config, rng_a);
  const GraResult b = solve_gra(problem, config, rng_b);

  EXPECT_DOUBLE_EQ(a.best.cost, b.best.cost);
  EXPECT_EQ(a.best.scheme.matrix(), b.best.scheme.matrix());
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.best_fitness_history, b.best_fitness_history);
  ASSERT_EQ(a.population.size(), b.population.size());
  EXPECT_EQ(population_hash(a.population), population_hash(b.population));
  // Both runs must advance the caller's stream identically too.
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

// The thread count and the pool size are pure scheduling: serial
// (threads=1) and the shared pool's lanes (any other value, here 2 and 0),
// on pools with fewer, as many and more workers than islands, produce the
// same bits.
TEST(IslandGra, ThreadCountDoesNotChangeResults) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config = island_config();
  config.common.threads = 1;
  util::Rng serial_rng(14);
  const GraResult serial = solve_gra(problem, config, serial_rng);
  const std::size_t pool_before = util::ThreadPool::shared().size();
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    util::ThreadPool::configure_shared(workers);
    for (const std::size_t threads : {2u, 0u}) {
      SCOPED_TRACE(::testing::Message()
                   << workers << " workers, threads " << threads);
      config.common.threads = threads;
      util::Rng rng(14);
      const GraResult pooled = solve_gra(problem, config, rng);
      EXPECT_DOUBLE_EQ(pooled.best.cost, serial.best.cost);
      EXPECT_EQ(pooled.best.scheme.matrix(), serial.best.scheme.matrix());
      EXPECT_EQ(pooled.evaluations, serial.evaluations);
      EXPECT_EQ(pooled.full_equivalent_evaluations,
                serial.full_equivalent_evaluations);
      EXPECT_EQ(pooled.best_fitness_history, serial.best_fitness_history);
      EXPECT_EQ(population_hash(pooled.population),
                population_hash(serial.population));
    }
  }
  util::ThreadPool::configure_shared(pool_before);
}

// The merged result must carry the full population (all islands, in island
// order) and a non-decreasing history of length generations+1.
TEST(IslandGra, MergeKeepsPopulationAndHistoryShape) {
  const core::Problem problem = testing::small_random_problem(13);
  const GraConfig config = island_config();
  util::Rng rng(14);
  const GraResult result = solve_gra(problem, config, rng);

  EXPECT_EQ(result.population.size(), config.population);
  ASSERT_EQ(result.best_fitness_history.size(), config.generations + 1);
  for (std::size_t g = 1; g < result.best_fitness_history.size(); ++g) {
    EXPECT_GE(result.best_fitness_history[g],
              result.best_fitness_history[g - 1]);
  }
  // The winner's fitness is the history's final entry.
  EXPECT_EQ(result.best.iterations, config.generations);
}

// Migration disabled (migration_count = 0): islands evolve independently
// and the run is still deterministic.
TEST(IslandGra, ZeroMigrationIsDeterministic) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config = island_config();
  config.migration_count = 0;
  util::Rng rng_a(14);
  util::Rng rng_b(14);
  const GraResult a = solve_gra(problem, config, rng_a);
  const GraResult b = solve_gra(problem, config, rng_b);
  EXPECT_EQ(a.best.scheme.matrix(), b.best.scheme.matrix());
  EXPECT_EQ(a.best_fitness_history, b.best_fitness_history);
}

TEST(IslandGra, ConfigValidation) {
  GraConfig config = island_config();
  config.islands = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = island_config();
  config.population = 6;  // 6/4 = 1 per island: too small
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = island_config();
  config.migration_interval = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = island_config();
  config.migration_count = 4;  // == share of 16/4: would replace everyone
  EXPECT_THROW(config.validate(), std::invalid_argument);

  EXPECT_NO_THROW(island_config().validate());
}

TEST(IslandGra, EvolvePopulationNeedsTwoChromosomesPerIsland) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config = island_config();
  config.population = 16;
  util::Rng seed_rng(5);
  std::vector<ga::Chromosome> tiny =
      random_population(problem, 2 * config.islands - 1, seed_rng);
  util::Rng rng(14);
  EXPECT_THROW((void)evolve_population(problem, tiny, config, rng),
               std::invalid_argument);
}

// evolve_population with islands: deterministic and bit-identical across
// thread counts, same contract as solve_gra.
TEST(IslandGra, EvolvePopulationIslandsDeterministic) {
  const core::Problem problem = testing::small_random_problem(13);
  GraConfig config = island_config();
  util::Rng seed_rng(5);
  const std::vector<ga::Chromosome> initial =
      random_population(problem, config.population, seed_rng);

  std::vector<GraResult> results;
  for (const std::size_t threads : {1u, 0u}) {
    config.common.threads = threads;
    util::Rng rng(14);
    results.push_back(evolve_population(problem, initial, config, rng));
  }
  EXPECT_EQ(results[0].best.scheme.matrix(), results[1].best.scheme.matrix());
  EXPECT_EQ(results[0].best_fitness_history,
            results[1].best_fitness_history);
  EXPECT_EQ(population_hash(results[0].population),
            population_hash(results[1].population));
}

// A capacity-tight problem where transcription repairs fire; the AGRA
// tests change every object.
core::Problem tight_problem() {
  return testing::small_random_problem(21, /*sites=*/10, /*objects=*/12,
                                       /*update_percent=*/5.0,
                                       /*capacity_percent=*/12.0);
}

std::vector<core::ObjectId> every_object(const core::Problem& problem) {
  std::vector<core::ObjectId> changed(problem.objects());
  std::iota(changed.begin(), changed.end(), core::ObjectId{0});
  return changed;
}

// Batched AGRA: the micro-GA batch on the shared pool's lanes (threads=0/2),
// at every pool size, must be bit-identical to the sequential pass
// (threads=1) on a capacity-tight problem where transcription repairs
// actually fire.
TEST(AgraBatch, ThreadCountDoesNotChangeResults) {
  const core::Problem problem = tight_problem();
  const ga::Chromosome current = primary_chromosome(problem);
  const std::vector<core::ObjectId> changed = every_object(problem);

  AgraConfig config;
  config.population = 6;
  config.generations = 8;
  config.common.threads = 1;
  util::Rng serial_rng(7);
  const AgraResult serial =
      solve_agra(problem, current, {}, changed, config, serial_rng);
  ASSERT_GT(serial.repairs, 0u) << "problem not tight enough to repair";
  const std::size_t pool_before = util::ThreadPool::shared().size();
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    util::ThreadPool::configure_shared(workers);
    for (const std::size_t threads : {0u, 2u}) {
      SCOPED_TRACE(::testing::Message()
                   << workers << " workers, threads " << threads);
      config.common.threads = threads;
      util::Rng rng(7);
      const AgraResult pooled =
          solve_agra(problem, current, {}, changed, config, rng);
      EXPECT_DOUBLE_EQ(pooled.best.cost, serial.best.cost);
      EXPECT_EQ(pooled.best.scheme.matrix(), serial.best.scheme.matrix());
      EXPECT_EQ(pooled.repairs, serial.repairs);
      EXPECT_EQ(pooled.best.iterations, serial.best.iterations);
      EXPECT_EQ(population_hash(pooled.population),
                population_hash(serial.population));
    }
  }
  util::ThreadPool::configure_shared(pool_before);
}

// The caller's RNG stream must advance identically regardless of threads —
// otherwise downstream draws (the monitor's next adapt) would diverge.
TEST(AgraBatch, CallerStreamAdvancesIdentically) {
  const core::Problem problem = tight_problem();
  const ga::Chromosome current = primary_chromosome(problem);
  const std::vector<core::ObjectId> changed = every_object(problem);

  AgraConfig config;
  config.population = 6;
  config.generations = 8;

  std::vector<std::uint64_t> next_draws;
  for (const std::size_t threads : {1u, 0u}) {
    config.common.threads = threads;
    util::Rng rng(7);
    (void)solve_agra(problem, current, {}, changed, config, rng);
    next_draws.push_back(rng.next());
  }
  EXPECT_EQ(next_draws[0], next_draws[1]);
}

// The budget is checked as each micro-GA starts: one already spent adapts
// no object, serially or on the pool, and both return the same result.
TEST(AgraBatch, SpentBudgetAdaptsNoObject) {
  const core::Problem problem = tight_problem();
  const ga::Chromosome current = primary_chromosome(problem);
  const std::vector<core::ObjectId> changed = every_object(problem);
  AgraConfig config;
  config.population = 6;
  config.generations = 8;
  config.common.time_limit_seconds = 1e-12;
  std::vector<AgraResult> results;
  for (const std::size_t threads : {1u, 0u}) {
    config.common.threads = threads;
    util::Rng rng(7);
    results.push_back(solve_agra(problem, current, {}, changed, config, rng));
    EXPECT_EQ(results.back().best.iterations, 0u) << threads << " threads";
  }
  EXPECT_EQ(results[1].best.scheme.matrix(), results[0].best.scheme.matrix());
  EXPECT_EQ(population_hash(results[1].population),
            population_hash(results[0].population));
}

// common.threads = 1 is strictly serial for the whole pass, the mini-GRA
// polish included: it submits no task to the shared pool even when the pool
// has workers.
TEST(AgraBatch, OneThreadSubmitsNoPoolTask) {
#if defined(DREP_OBS_DISABLED)
  GTEST_SKIP() << "pool tasks are counted by the obs metrics";
#else
  const auto pool_tasks = [] {
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    const obs::MetricSample* sample = snapshot.find("drep_pool_tasks_total");
    return sample != nullptr ? sample->value : 0.0;
  };
  const core::Problem problem = testing::small_random_problem(23);  // 12×15
  const ga::Chromosome current = primary_chromosome(problem);
  const std::vector<core::ObjectId> changed = {0, 2, 3, 5, 7, 8, 11, 14};
  const std::size_t pool_before = util::ThreadPool::shared().size();
  util::ThreadPool::configure_shared(4);
  AgraConfig config;
  config.population = 6;
  config.generations = 8;
  config.mini_gra_generations = 5;
  config.common.threads = 1;
  const double before = pool_tasks();
  util::Rng serial_rng(7);
  const AgraResult serial =
      solve_agra(problem, current, {}, changed, config, serial_rng);
  EXPECT_EQ(pool_tasks(), before);
  // The counter does see a pooled pass, and it returns the same scheme.
  config.common.threads = 0;
  util::Rng pooled_rng(7);
  const AgraResult pooled =
      solve_agra(problem, current, {}, changed, config, pooled_rng);
  EXPECT_GT(pool_tasks(), before);
  EXPECT_EQ(pooled.best.scheme.matrix(), serial.best.scheme.matrix());
  util::ThreadPool::configure_shared(pool_before);
#endif
}

}  // namespace
}  // namespace drep::algo
