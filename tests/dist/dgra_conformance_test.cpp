// Conformance suite for the decentralized island GA (DESIGN.md Section 15).
//
// The contract under test: on a perfect network, run_decentralized_gra is
// bit-for-bit the centralized solve_gra from an identically-seeded stream —
// cost, scheme, evaluation counts, history, population, and the caller's
// RNG advance — at islands=1 (the solve_gra direct path) and islands=K
// (the fork_island_rngs plan). Under seeded loss and crash/rejoin the run
// degrades gracefully: cost within the pinned ceiling, sequence-id logs
// clean, crashed islands' elites re-admitted on rejoin.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algo/gra.hpp"
#include "audit/invariants.hpp"
#include "dist/dgra.hpp"
#include "sim/fault_plan.hpp"
#include "testing/builders.hpp"

namespace drep::dist {
namespace {

std::uint64_t population_hash(const std::vector<algo::Individual>& population) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const algo::Individual& ind : population) {
    for (const std::uint8_t b : ind.genes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

algo::GraConfig base_config(std::size_t islands) {
  algo::GraConfig config;
  config.population = 16;
  config.generations = 15;
  config.islands = islands;
  config.migration_interval = 5;
  config.migration_count = 1;
  return config;
}

void expect_bit_equal(const DgraResult& dist, const algo::GraResult& central) {
  EXPECT_DOUBLE_EQ(dist.merged.best.cost, central.best.cost);
  EXPECT_EQ(dist.merged.best.scheme.matrix(), central.best.scheme.matrix());
  EXPECT_EQ(dist.merged.evaluations, central.evaluations);
  EXPECT_DOUBLE_EQ(dist.merged.full_equivalent_evaluations,
                   central.full_equivalent_evaluations);
  EXPECT_EQ(dist.merged.best_fitness_history, central.best_fitness_history);
  EXPECT_EQ(population_hash(dist.merged.population),
            population_hash(central.population));
}

// The tentpole equivalence: ten seeds, K = 4 islands spread over four DES
// nodes, zero tolerance.
TEST(DgraConformance, PerfectNetworkMatchesCentralizedTenSeeds) {
  const core::Problem problem = testing::small_random_problem(13);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DgraOptions options;
    options.gra = base_config(4);
    util::Rng dist_rng(seed);
    util::Rng central_rng(seed);
    const DgraResult dist = run_decentralized_gra(problem, options, dist_rng);
    const algo::GraResult central =
        algo::solve_gra(problem, options.gra, central_rng);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_bit_equal(dist, central);
    // Both drivers must advance the caller's stream identically.
    EXPECT_EQ(dist_rng.next(), central_rng.next());
  }
}

// K = 1 is solve_gra's direct path: no fork, no migration, the caller's
// stream drives the single island.
TEST(DgraConformance, SingleIslandMatchesDirectPath) {
  const core::Problem problem = testing::small_random_problem(13);
  for (std::uint64_t seed : {3u, 14u, 41u}) {
    DgraOptions options;
    options.gra = base_config(1);
    util::Rng dist_rng(seed);
    util::Rng central_rng(seed);
    const DgraResult dist = run_decentralized_gra(problem, options, dist_rng);
    const algo::GraResult central =
        algo::solve_gra(problem, options.gra, central_rng);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_bit_equal(dist, central);
    EXPECT_EQ(dist_rng.next(), central_rng.next());
  }
}

// A perfect network exchanges only the elite migrations themselves: no
// acks, no retransmissions, no drops — the zero-overhead regime the
// equivalence proof rides on.
TEST(DgraConformance, PerfectNetworkSendsOnlyMigrations) {
  const core::Problem problem = testing::small_random_problem(13);
  DgraOptions options;
  options.gra = base_config(4);
  util::Rng rng(14);
  const DgraResult dist = run_decentralized_gra(problem, options, rng);
  // 15 generations at interval 5: epochs end at g=5 and g=10 with an
  // exchange, g=15 finishes without one.
  EXPECT_EQ(dist.epochs, 3u);
  EXPECT_EQ(dist.migrations_sent, 8u);  // 4 islands × 2 exchanging epochs
  EXPECT_EQ(dist.migrations_applied, 8u);
  EXPECT_EQ(dist.migrations_missed, 0u);
  EXPECT_EQ(dist.elites_readmitted, 0u);
  EXPECT_EQ(dist.traffic.total_messages(), 8u);
  EXPECT_EQ(dist.retry_stats.retries, 0u);
  EXPECT_TRUE(audit::check_envelope_log(dist.envelope_log).empty());
}

// 20% seeded loss: every migration eventually lands (bounded retry) or is
// given up on; cost stays within the pinned degradation ceiling of the
// centralized optimum and no sequencing invariant breaks.
TEST(DgraConformance, SeededLossStaysWithinCeiling) {
  const core::Problem problem = testing::small_random_problem(13);
  for (std::uint64_t seed : {5u, 23u}) {
    DgraOptions options;
    options.gra = base_config(4);
    options.faults = sim::FaultPlan::parse("seed=9,drop=0.2");
    util::Rng dist_rng(seed);
    util::Rng central_rng(seed);
    const DgraResult dist = run_decentralized_gra(problem, options, dist_rng);
    const algo::GraResult central =
        algo::solve_gra(problem, options.gra, central_rng);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_LE(dist.merged.best.cost, 1.10 * central.best.cost);
    EXPECT_TRUE(audit::check_scheme(dist.merged.best.scheme).empty());
    EXPECT_TRUE(audit::check_envelope_log(dist.envelope_log).empty());
    // The retry layer actually engaged (otherwise the drop rate was never
    // exercised): some message was dropped and retransmitted.
    EXPECT_GT(dist.traffic.dropped_messages(), 0u);
    EXPECT_GT(dist.retry_stats.retries, 0u);

    audit::DistConvergenceCounts counts;
    counts.perfect_network = false;
    counts.decentralized_cost = dist.merged.best.cost;
    counts.centralized_cost = central.best.cost;
    counts.decentralized_scheme_hash =
        chromosome_hash(dist.merged.best.scheme.matrix());
    counts.centralized_scheme_hash =
        chromosome_hash(central.best.scheme.matrix());
    counts.decentralized_evaluations = dist.merged.evaluations;
    counts.centralized_evaluations = central.evaluations;
    EXPECT_TRUE(audit::check_dist_convergence(counts).empty());
  }
}

// A crashed island stops mid-run and rejoins: its unacked elites are
// resent on recovery and re-admitted into the ring even though their
// epoch has passed, and the merged run still produces a valid scheme
// within the degradation ceiling.
TEST(DgraConformance, CrashRejoinReadmitsElites) {
  const core::Problem problem = testing::line_problem(4, 6, 10.0, 1000.0);
  // line_problem leaves patterns zeroed; give the GA something to optimize.
  core::Problem patterned = problem;
  util::Rng pattern_rng(3);
  for (core::SiteId i = 0; i < patterned.sites(); ++i) {
    for (core::ObjectId k = 0; k < patterned.objects(); ++k) {
      patterned.set_reads(i, k, static_cast<double>(pattern_rng.below(50)));
      patterned.set_writes(i, k, static_cast<double>(pattern_rng.below(5)));
    }
  }
  DgraOptions options;
  options.gra = base_config(4);
  // Ring latencies are the unit line costs; site 1 goes down just after
  // its epoch-1 elites leave and rejoins after its neighbours have moved
  // on, so its resend arrives late.
  options.faults = sim::FaultPlan::parse("crash=1@0.5..40");
  util::Rng dist_rng(14);
  util::Rng central_rng(14);
  const DgraResult dist =
      run_decentralized_gra(patterned, options, dist_rng);
  const algo::GraResult central =
      algo::solve_gra(patterned, options.gra, central_rng);

  EXPECT_EQ(dist.islands_crashed, 1u);
  EXPECT_GT(dist.elites_readmitted, 0u);
  EXPECT_LE(dist.merged.best.cost, 1.10 * central.best.cost);
  EXPECT_TRUE(audit::check_scheme(dist.merged.best.scheme).empty());
  EXPECT_TRUE(audit::check_envelope_log(dist.envelope_log).empty());
}

// Faulty runs are as repeatable as healthy ones: same plan, same seed,
// same bits.
TEST(DgraConformance, FaultyRunIsDeterministic) {
  const core::Problem problem = testing::small_random_problem(13);
  std::vector<DgraResult> runs;
  for (int repeat = 0; repeat < 2; ++repeat) {
    DgraOptions options;
    options.gra = base_config(4);
    options.faults = sim::FaultPlan::parse("seed=9,drop=0.2");
    util::Rng rng(14);
    runs.push_back(run_decentralized_gra(problem, options, rng));
  }
  EXPECT_EQ(runs[0].merged.best.scheme.matrix(),
            runs[1].merged.best.scheme.matrix());
  EXPECT_EQ(runs[0].merged.evaluations, runs[1].merged.evaluations);
  EXPECT_EQ(runs[0].migrations_applied, runs[1].migrations_applied);
  EXPECT_EQ(runs[0].retry_stats.retries, runs[1].retry_stats.retries);
  EXPECT_EQ(runs[0].envelope_log.size(), runs[1].envelope_log.size());
}

// Pinned drop+crash run. Elites on one link are sent in epoch order and
// only the newest is ever retransmitted, so without spikes nothing is
// overtaken: every counter pins the delivery schedule.
TEST(DgraConformance, DropCrashRunIsPinned) {
  const core::Problem problem = testing::small_random_problem(13);
  DgraOptions options;
  options.gra = base_config(4);
  options.faults = sim::FaultPlan::parse("seed=9,drop=0.2,crash=1@0.5..40");
  util::Rng rng(5);
  const DgraResult dist = run_decentralized_gra(problem, options, rng);
  EXPECT_EQ(dist.traffic.sent_messages, 24u);
  EXPECT_EQ(dist.traffic.data_messages, 9u);
  EXPECT_EQ(dist.traffic.control_messages, 5u);
  EXPECT_EQ(dist.traffic.dropped_link, 8u);
  EXPECT_EQ(dist.traffic.dropped_site_down, 2u);
  EXPECT_EQ(dist.traffic.latency_spikes, 0u);
  EXPECT_EQ(dist.retry_stats.retries, 7u);
  EXPECT_EQ(dist.retry_stats.timeouts, 6u);
  EXPECT_EQ(dist.retry_stats.give_ups, 0u);
  EXPECT_EQ(dist.retry_stats.duplicates, 2u);
  EXPECT_EQ(dist.migrations_sent, 8u);
  EXPECT_EQ(dist.migrations_applied, 7u);
  EXPECT_EQ(dist.migrations_missed, 1u);
  EXPECT_EQ(dist.elites_readmitted, 0u);
  EXPECT_EQ(dist.islands_crashed, 1u);
  EXPECT_DOUBLE_EQ(dist.round_time, 3168.0);
}

// A spike-only plan loses nothing, so every migration must land at its own
// epoch — including elites overtaken by the next epoch's, which a
// per-sender watermark dedup would discard.
TEST(DgraConformance, SpikeOnlyPlanMissesNoMigration) {
  const core::Problem problem = testing::small_random_problem(13);
  for (const std::size_t islands : {2u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      DgraOptions options;
      options.gra = base_config(islands);
      options.gra.generations = 40;
      options.gra.migration_count = 2;
      options.faults = sim::FaultPlan::parse(
          "seed=" + std::to_string(seed) + ",spike=0.3,spikex=4");
      util::Rng rng(seed);
      const DgraResult dist = run_decentralized_gra(problem, options, rng);
      SCOPED_TRACE("K=" + std::to_string(islands) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(dist.migrations_missed, 0u);
      // 40 generations at interval 5: 7 exchanging epochs per island.
      EXPECT_EQ(dist.migrations_applied, 7 * islands);
      EXPECT_EQ(dist.traffic.dropped_messages(), 0u);
      EXPECT_TRUE(audit::check_envelope_log(dist.envelope_log).empty());
    }
  }
}

TEST(DgraConformance, OptionValidation) {
  DgraOptions options;
  options.gra = base_config(4);
  options.latency_per_cost = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);

  options = DgraOptions{};
  options.gra = base_config(4);
  options.elite_size_units = -1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);

  // More islands than sites: no DES node to host island 12.
  options = DgraOptions{};
  options.gra = base_config(4);
  options.gra.islands = 13;
  options.gra.population = 32;
  const core::Problem problem = testing::small_random_problem(13);
  util::Rng rng(1);
  EXPECT_THROW((void)run_decentralized_gra(problem, options, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace drep::dist
