#include "algo/baselines.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "algo/sra.hpp"
#include "core/benefit.hpp"
#include "core/cost_model.hpp"
#include "testing/builders.hpp"
#include "workload/generator.hpp"
#include "workload/stream_gen.hpp"

namespace drep::algo {
namespace {

TEST(PrimaryOnly, ZeroSavingsByDefinition) {
  const core::Problem p = testing::small_random_problem(1);
  const AlgorithmResult result = primary_only(p);
  EXPECT_DOUBLE_EQ(result.savings_percent, 0.0);
  EXPECT_DOUBLE_EQ(result.cost, core::primary_only_cost(p));
  EXPECT_EQ(result.extra_replicas, 0u);
}

TEST(RandomValid, RespectsCapacityAndPrimaries) {
  const core::Problem p = testing::small_random_problem(2);
  util::Rng rng(3);
  const AlgorithmResult result = random_valid(p, rng);
  EXPECT_TRUE(result.scheme.is_valid());
  for (core::ObjectId k = 0; k < p.objects(); ++k)
    EXPECT_TRUE(result.scheme.has_replica(p.primary(k), k));
  EXPECT_GT(result.extra_replicas, 0u);
}

TEST(RandomValid, FillProbabilityZeroGivesPrimaryOnly) {
  const core::Problem p = testing::small_random_problem(4);
  util::Rng rng(5);
  const AlgorithmResult result = random_valid(p, rng, 0.0);
  EXPECT_EQ(result.extra_replicas, 0u);
}

TEST(HillClimb, ReachesALocalOptimum) {
  const core::Problem p = testing::small_random_problem(6, 8, 8);
  HillClimbStats stats;
  const AlgorithmResult result = hill_climb(p, nullptr, 10000, &stats);
  EXPECT_TRUE(result.scheme.is_valid());
  EXPECT_GE(result.savings_percent, 0.0);
  EXPECT_GT(stats.delta_evaluations, 0u);
  // No remaining improving move.
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    for (core::ObjectId k = 0; k < p.objects(); ++k) {
      if (!result.scheme.has_replica(i, k)) {
        if (result.scheme.fits(i, k)) {
          EXPECT_GE(core::insertion_delta(result.scheme, i, k), -1e-9);
        }
      } else if (p.primary(k) != i) {
        EXPECT_GE(core::removal_delta(result.scheme, i, k), -1e-9);
      }
    }
  }
}

TEST(HillClimb, AtLeastAsGoodAsSraOnSmallInstances) {
  // Exact-delta best-improvement dominates the local-view greedy here.
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const core::Problem p = testing::small_random_problem(seed, 8, 8, 10.0);
    const AlgorithmResult hc = hill_climb(p);
    const AlgorithmResult sra = solve_sra(p);
    EXPECT_GE(hc.savings_percent, sra.savings_percent - 1e-6) << "seed " << seed;
  }
}

TEST(HillClimb, StartingSchemeIsRespected) {
  const core::Problem p = testing::small_random_problem(15, 8, 8);
  util::Rng rng(16);
  const AlgorithmResult random_start = random_valid(p, rng);
  const AlgorithmResult improved = hill_climb(p, &random_start.scheme);
  EXPECT_LE(improved.cost, random_start.cost + 1e-9);
}

TEST(HillClimb, MaxMovesBoundsWork) {
  const core::Problem p = testing::small_random_problem(17, 8, 8);
  HillClimbStats stats;
  (void)hill_climb(p, nullptr, 3, &stats);
  EXPECT_LE(stats.insertions + stats.removals, 3u);
}

/// FNV-1a over the scheme matrix — a compact bit-exact fingerprint.
std::uint64_t scheme_hash(const core::ReplicationScheme& scheme) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : scheme.matrix()) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

void expect_outcome(const AlgorithmResult& result, const HillClimbStats& stats,
                    double cost, std::size_t insertions, std::size_t removals,
                    std::uint64_t hash) {
  EXPECT_EQ(result.cost, cost);
  EXPECT_EQ(stats.insertions, insertions);
  EXPECT_EQ(stats.removals, removals);
  EXPECT_EQ(scheme_hash(result.scheme), hash);
}

// Keeping the deltas and re-deriving only the moved object's column must
// make the moves that re-deriving every delta at every move makes. These
// outcomes were recorded from the latter on three instances: full rows from
// primary-only, partial rows from primary-only, and a random start that
// needs removals.
TEST(HillClimb, CachedDeltasKeepTheRecordedOutcomes) {
  {
    workload::GeneratorConfig config;
    config.sites = 20;
    config.objects = 100;
    config.update_ratio_percent = 5.0;
    config.capacity_percent = 15.0;
    util::Rng rng(3);
    const core::Problem p = workload::generate(config, rng);
    HillClimbStats stats;
    const AlgorithmResult result = hill_climb(p, nullptr, 10000, &stats);
    expect_outcome(result, stats, 3013559.0, 202, 0,
                   13620545061728062721ULL);
  }
  {
    workload::StreamConfig config;
    config.sites = 12;
    config.objects = 80;
    config.seed = 73;
    const core::Problem p = workload::build_sparse_instance(config);
    HillClimbStats stats;
    const AlgorithmResult result = hill_climb(p, nullptr, 10000, &stats);
    expect_outcome(result, stats, 1256961.9688907478, 16, 0,
                   6798802136127313783ULL);
  }
  {
    const core::Problem p = testing::small_random_problem(15, 10, 30, 10.0);
    util::Rng rng(16);
    const AlgorithmResult start = random_valid(p, rng);
    HillClimbStats stats;
    const AlgorithmResult result = hill_climb(p, &start.scheme, 10000, &stats);
    expect_outcome(result, stats, 646425.0, 13, 15,
                   11233331889658809112ULL);
  }
}

}  // namespace
}  // namespace drep::algo
