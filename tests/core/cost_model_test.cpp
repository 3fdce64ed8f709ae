#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"
#include "workload/stream_gen.hpp"

namespace drep::core {
namespace {

/// Hand-checkable fixture: 3 sites on a line, one object (size 10, primary
/// at site 0), reads 4@site1 and 2@site2, writes 1@site1.
Problem tiny() {
  Problem p = testing::line3_problem(10.0);
  p.set_reads(1, 0, 4.0);
  p.set_reads(2, 0, 2.0);
  p.set_writes(1, 0, 1.0);
  return p;
}

TEST(CostModel, PrimaryOnlyHandComputed) {
  const Problem p = tiny();
  // D_prime = o * [ (r1+w1)*C(1,0) + r2*C(2,0) ]
  //         = 10 * [ 5*1 + 2*2 ] = 90.
  EXPECT_DOUBLE_EQ(primary_only_cost(p), 90.0);
  EXPECT_DOUBLE_EQ(object_primary_only_cost(p, 0), 90.0);
  const ReplicationScheme scheme(p);
  EXPECT_DOUBLE_EQ(total_cost(scheme), 90.0);
  EXPECT_DOUBLE_EQ(object_cost(scheme, 0), 90.0);
}

TEST(CostModel, ReplicaAtReaderHandComputed) {
  const Problem p = tiny();
  ReplicationScheme scheme(p);
  scheme.add(1, 0);
  // Reads: site1 local (0), site2 reads from site1 at C=1: 2*10*1 = 20.
  // Writes: site1 ships its 1 write to primary: 1*10*1 = 10; replica at 1
  // receives nothing else (no other writers). Total = 30.
  EXPECT_DOUBLE_EQ(total_cost(scheme), 30.0);
  const CostBreakdown parts = cost_breakdown(scheme);
  EXPECT_DOUBLE_EQ(parts.read_cost, 20.0);
  EXPECT_DOUBLE_EQ(parts.write_cost, 10.0);
}

TEST(CostModel, WriteBroadcastCharged) {
  Problem p = tiny();
  p.set_writes(2, 0, 3.0);  // writer that is NOT a replicator
  ReplicationScheme scheme(p);
  scheme.add(1, 0);
  // Reads as before: 20.
  // Writes: w1=1 ships to SP (cost 1*10*1=10); w2=3 ships to SP (3*10*2=60);
  // replica at site1 receives the 3 updates from site2: 3*10*1 = 30.
  // Total = 20 + 10 + 60 + 30 = 120.
  EXPECT_DOUBLE_EQ(total_cost(scheme), 120.0);
}

TEST(CostModel, SavingsFraction) {
  const Problem p = tiny();
  ReplicationScheme scheme(p);
  scheme.add(1, 0);
  EXPECT_NEAR(savings_fraction(p, total_cost(scheme)), (90.0 - 30.0) / 90.0, 1e-12);
  EXPECT_NEAR(savings_percent(p, scheme), 100.0 * 60.0 / 90.0, 1e-12);
}

TEST(CostModel, SavingsWithZeroTraffic) {
  const Problem p = testing::line3_problem();
  EXPECT_DOUBLE_EQ(savings_fraction(p, 0.0), 0.0);
}

// Property: receiver-view (Eq. 4) and writer-view (Eqs. 2+3) bookkeepings
// agree on random instances and random schemes.
class CostViewsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CostViewsProperty, ReceiverEqualsWriterView) {
  const Problem p = testing::small_random_problem(GetParam());
  ReplicationScheme scheme(p);
  util::Rng rng(GetParam() + 1000);
  for (int step = 0; step < 60; ++step) {
    const auto i = static_cast<SiteId>(rng.index(p.sites()));
    const auto k = static_cast<ObjectId>(rng.index(p.objects()));
    scheme.add(i, k);
  }
  const double receiver = total_cost(scheme);
  const double writer = total_cost_writer_view(scheme);
  EXPECT_NEAR(receiver, writer, 1e-6 * std::max(1.0, receiver));
}

TEST_P(CostViewsProperty, EvaluatorMatchesSchemeCost) {
  const Problem p = testing::small_random_problem(GetParam());
  ReplicationScheme scheme(p);
  util::Rng rng(GetParam() + 2000);
  for (int step = 0; step < 40; ++step) {
    scheme.add(static_cast<SiteId>(rng.index(p.sites())),
               static_cast<ObjectId>(rng.index(p.objects())));
  }
  CostEvaluator evaluator(p);
  EXPECT_NEAR(evaluator.total_cost(scheme.matrix()), total_cost(scheme),
              1e-6 * std::max(1.0, total_cost(scheme)));
  EXPECT_NEAR(evaluator.primary_only_cost(), primary_only_cost(p), 1e-6);
}

TEST_P(CostViewsProperty, ObjectCostsSumToTotal) {
  const Problem p = testing::small_random_problem(GetParam() + 17);
  ReplicationScheme scheme(p);
  util::Rng rng(GetParam() + 3000);
  for (int step = 0; step < 40; ++step) {
    scheme.add(static_cast<SiteId>(rng.index(p.sites())),
               static_cast<ObjectId>(rng.index(p.objects())));
  }
  double sum = 0.0;
  for (ObjectId k = 0; k < p.objects(); ++k) sum += object_cost(scheme, k);
  EXPECT_NEAR(sum, total_cost(scheme), 1e-6 * std::max(1.0, sum));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostViewsProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(CostEvaluator, ObjectCostFromMask) {
  const Problem p = tiny();
  CostEvaluator evaluator(p);
  std::vector<std::uint8_t> mask(3, 0);
  EXPECT_DOUBLE_EQ(evaluator.object_cost(0, mask), 90.0);  // primary implied
  mask[1] = 1;
  EXPECT_DOUBLE_EQ(evaluator.object_cost(0, mask), 30.0);
  EXPECT_DOUBLE_EQ(evaluator.object_primary_only_cost(0), 90.0);
}

TEST(CostEvaluator, FitnessDefinition) {
  const Problem p = tiny();
  CostEvaluator evaluator(p);
  std::vector<std::uint8_t> matrix(3, 0);
  matrix[1] = 1;
  EXPECT_NEAR(evaluator.fitness(matrix), (90.0 - 30.0) / 90.0, 1e-12);
}

TEST(CostEvaluator, RefreshPicksUpPatternChanges) {
  Problem p = tiny();
  CostEvaluator evaluator(p);
  const double before = evaluator.primary_only_cost();
  p.set_reads(2, 0, 20.0);  // was 2
  // Stale snapshot until refresh.
  EXPECT_DOUBLE_EQ(evaluator.primary_only_cost(), before);
  evaluator.refresh();
  EXPECT_DOUBLE_EQ(evaluator.primary_only_cost(),
                   10.0 * (5.0 * 1.0 + 20.0 * 2.0));
}

TEST(CostEvaluator, PartialRowsMatchTheirMaterializedCopy) {
  // The evaluator walks whatever rows the problem stores: partial rows of a
  // streamed instance and the full rows of its materialize() copy must give
  // the same V'_k, D', V_k and totals, bit for bit, through delta churn.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::StreamConfig config;
    config.sites = 9 + seed;
    config.objects = 40;
    config.seed = seed;
    const Problem partial = workload::build_sparse_instance(config);
    const Problem full = partial.materialize();
    ASSERT_LT(partial.demand_cells(), full.demand_cells());
    CostEvaluator on_partial(partial);
    CostEvaluator on_full(full);
    ASSERT_EQ(on_partial.primary_only_cost(), on_full.primary_only_cost());
    for (ObjectId k = 0; k < partial.objects(); ++k) {
      ASSERT_EQ(on_partial.object_primary_only_cost(k),
                on_full.object_primary_only_cost(k));
    }

    util::Rng rng(seed + 500);
    const std::size_t n = partial.objects();
    std::vector<std::uint8_t> matrix(partial.sites() * n, 0);
    for (auto& bit : matrix) bit = rng.bernoulli(0.2) ? 1 : 0;
    std::vector<double> v_partial(n, 0.0);
    std::vector<double> v_full(n, 0.0);
    ASSERT_EQ(on_partial.full_cost(matrix, v_partial),
              on_full.full_cost(matrix, v_full));
    ASSERT_EQ(v_partial, v_full);
    for (int step = 0; step < 100; ++step) {
      const auto i = static_cast<SiteId>(rng.index(partial.sites()));
      const auto k = static_cast<ObjectId>(rng.index(n));
      std::uint8_t& bit = matrix[static_cast<std::size_t>(i) * n + k];
      bit = bit != 0 ? 0 : 1;
      const ObjectId changed[] = {k};
      const double total = on_partial.delta_cost(matrix, changed, v_partial);
      ASSERT_EQ(total, on_full.delta_cost(matrix, changed, v_full));
      ASSERT_EQ(v_partial[k], v_full[k]);
      ASSERT_EQ(total, on_full.total_cost(matrix));
    }
  }
}

TEST(CostEvaluator, RejectsWrongSizes) {
  const Problem p = tiny();
  CostEvaluator evaluator(p);
  std::vector<std::uint8_t> bad(5, 0);
  EXPECT_THROW((void)evaluator.total_cost(bad), std::invalid_argument);
  EXPECT_THROW((void)evaluator.object_cost(0, bad), std::invalid_argument);
  std::vector<std::uint8_t> mask(3, 0);
  EXPECT_THROW((void)evaluator.object_cost(1, mask), std::out_of_range);
}

TEST(CostModel, MoreReplicasNeverIncreaseReadCost) {
  const Problem p = testing::small_random_problem(21);
  ReplicationScheme scheme(p);
  util::Rng rng(4);
  double previous_read = cost_breakdown(scheme).read_cost;
  for (int step = 0; step < 50; ++step) {
    scheme.add(static_cast<SiteId>(rng.index(p.sites())),
               static_cast<ObjectId>(rng.index(p.objects())));
    const double read = cost_breakdown(scheme).read_cost;
    EXPECT_LE(read, previous_read + 1e-9);
    previous_read = read;
  }
}

}  // namespace
}  // namespace drep::core
