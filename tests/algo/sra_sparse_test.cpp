// SRA row-shape conformance: one kernel, two row shapes. solve_sra on the
// partial rows of build_sparse_instance and on the full rows of the same
// instance must agree bit-for-bit — final cost/savings/replica lists, the
// per-run statistics (site visits and benefit evaluations, including the
// dead-candidate count), the rng stream consumed, and the scheme state.

#include "algo/sra.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "audit/invariants.hpp"
#include "core/cost_model.hpp"
#include "testing/row_shapes.hpp"
#include "util/rng.hpp"
#include "workload/stream_gen.hpp"

namespace drep::algo {
namespace {

struct Case {
  std::uint64_t seed;
  SraConfig::SiteOrder order;
};

/// Prints a case as "seed61_round_robin". gtest prints a struct without a
/// PrintTo as its raw bytes, padding included, and ctest names each case
/// after that print, so the ids would change from build to build.
void PrintTo(const Case& c, std::ostream* out) {
  *out << "seed" << c.seed
       << (c.order == SraConfig::SiteOrder::kRoundRobin ? "_round_robin"
                                                        : "_random");
}

class SparseSraDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(SparseSraDifferential, MatchesDenseSraBitForBit) {
  workload::StreamConfig config;
  config.sites = 11;
  config.objects = 60;
  config.seed = GetParam().seed;
  const core::Problem inst = workload::build_sparse_instance(config);
  const core::Problem full_problem = workload::materialize_problem(config);

  SraConfig sra_config;
  sra_config.site_order = GetParam().order;

  util::Rng partial_rng(GetParam().seed * 3 + 1);
  util::Rng full_rng = partial_rng;
  SraStats partial_stats;
  SraStats full_stats;
  const AlgorithmResult partial =
      solve_sra(inst, sra_config, partial_rng, &partial_stats);
  const AlgorithmResult full =
      solve_sra(full_problem, sra_config, full_rng, &full_stats);

  EXPECT_EQ(partial.cost, full.cost);
  EXPECT_EQ(partial.savings_percent, full.savings_percent);
  EXPECT_EQ(partial.extra_replicas, full.extra_replicas);
  EXPECT_EQ(partial.iterations, full.iterations);
  EXPECT_EQ(partial_stats.site_visits, full_stats.site_visits);
  EXPECT_EQ(partial_stats.benefit_evaluations, full_stats.benefit_evaluations);
  EXPECT_EQ(partial_stats.replicas_created, full_stats.replicas_created);
  EXPECT_TRUE(audit::check_scheme(partial.scheme).empty());
  EXPECT_TRUE(audit::check_sra_terminal(partial.scheme).empty());
  EXPECT_TRUE(audit::check_sra_terminal(full.scheme).empty());
  EXPECT_TRUE(testing::compare_row_shapes(partial.scheme, full.scheme).empty());
  // The two rngs must also have consumed identical stream positions.
  EXPECT_EQ(partial_rng.next(), full_rng.next());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndOrders, SparseSraDifferential,
    ::testing::Values(Case{61, SraConfig::SiteOrder::kRoundRobin},
                      Case{62, SraConfig::SiteOrder::kRoundRobin},
                      Case{63, SraConfig::SiteOrder::kRoundRobin},
                      Case{64, SraConfig::SiteOrder::kRandom},
                      Case{65, SraConfig::SiteOrder::kRandom},
                      Case{66, SraConfig::SiteOrder::kRandom}));

TEST(SparseSra, DeterministicAcrossRuns) {
  workload::StreamConfig config;
  config.sites = 10;
  config.objects = 50;
  config.seed = 71;
  const core::Problem inst = workload::build_sparse_instance(config);
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  const AlgorithmResult a = solve_sra(inst, SraConfig{}, rng_a);
  const AlgorithmResult b = solve_sra(inst, SraConfig{}, rng_b);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.extra_replicas, b.extra_replicas);
  for (core::ObjectId k = 0; k < inst.objects(); ++k)
    EXPECT_EQ(a.scheme.replicas(k), b.scheme.replicas(k));
}

TEST(SparseSra, ImprovesOnPrimaryOnlyWhenBeneficial) {
  workload::StreamConfig config;
  config.sites = 12;
  config.objects = 80;
  config.seed = 73;
  const core::Problem inst = workload::build_sparse_instance(config);
  const AlgorithmResult result = solve_sra(inst);
  EXPECT_LE(result.cost, core::primary_only_cost(inst));
  EXPECT_GE(result.savings_percent, 0.0);
  EXPECT_GT(result.iterations, 0u);
}

}  // namespace
}  // namespace drep::algo
