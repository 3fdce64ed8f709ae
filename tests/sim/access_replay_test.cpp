#include "sim/access_replay.hpp"

#include <gtest/gtest.h>

#include "algo/sra.hpp"
#include "core/cost_model.hpp"
#include "testing/builders.hpp"

namespace drep::sim {
namespace {

TEST(AccessReplay, HandComputedTinyCase) {
  core::Problem p = testing::line3_problem(10.0);
  p.set_reads(1, 0, 4.0);
  p.set_reads(2, 0, 2.0);
  p.set_writes(1, 0, 1.0);
  core::ReplicationScheme scheme(p);
  scheme.add(1, 0);
  util::Rng rng(1);
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult result = replay_trace(scheme, trace);
  // Matches the analytic D = 30 computed in cost_model_test.
  EXPECT_DOUBLE_EQ(result.traffic.data_traffic, 30.0);
  EXPECT_EQ(result.local_reads, 4u);   // site 1 reads locally
  EXPECT_EQ(result.remote_reads, 2u);  // site 2 fetches from site 1
  EXPECT_EQ(result.writes, 1u);
}

// The central model-validation property: for arbitrary problems and
// schemes, replayed traffic equals the analytic cost model's D.
class ReplayEqualsAnalyticD : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayEqualsAnalyticD, OnRandomSchemes) {
  const core::Problem p = testing::small_random_problem(GetParam());
  core::ReplicationScheme scheme(p);
  util::Rng rng(GetParam() + 500);
  for (int step = 0; step < 40; ++step) {
    scheme.add(static_cast<core::SiteId>(rng.index(p.sites())),
               static_cast<core::ObjectId>(rng.index(p.objects())));
  }
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult result = replay_trace(scheme, trace);
  const double analytic = core::total_cost(scheme);
  EXPECT_NEAR(result.traffic.data_traffic, analytic,
              1e-6 * std::max(1.0, analytic));
}

TEST_P(ReplayEqualsAnalyticD, OnSraSchemes) {
  const core::Problem p = testing::small_random_problem(GetParam() + 40);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  util::Rng rng(GetParam() + 600);
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult result = replay_trace(sra.scheme, trace);
  EXPECT_NEAR(result.traffic.data_traffic, sra.cost,
              1e-6 * std::max(1.0, sra.cost));
}

TEST_P(ReplayEqualsAnalyticD, OnPrimaryOnly) {
  const core::Problem p = testing::small_random_problem(GetParam() + 80);
  const core::ReplicationScheme scheme(p);
  util::Rng rng(GetParam() + 700);
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult result = replay_trace(scheme, trace);
  EXPECT_NEAR(result.traffic.data_traffic, core::primary_only_cost(p),
              1e-6 * std::max(1.0, core::primary_only_cost(p)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayEqualsAnalyticD,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(AccessReplay, RequestCountsPreserved) {
  const core::Problem p = testing::small_random_problem(9, 8, 6);
  core::ReplicationScheme scheme(p);
  scheme.add(1, 0);
  util::Rng rng(10);
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult result = replay_trace(scheme, trace);
  double reads = 0.0, writes = 0.0;
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    reads += p.total_reads(k);
    writes += p.total_writes(k);
  }
  EXPECT_EQ(result.local_reads + result.remote_reads,
            static_cast<std::size_t>(reads));
  EXPECT_EQ(result.writes, static_cast<std::size_t>(writes));
}

TEST(AccessReplay, InterArrivalSpacingExtendsDuration) {
  core::Problem p = testing::line3_problem(10.0);
  p.set_reads(2, 0, 5.0);
  const core::ReplicationScheme scheme(p);
  util::Rng rng(11);
  const auto trace = workload::build_trace(p, rng);
  ReplayOptions options;
  const ReplayResult tight = replay_trace(scheme, trace, options);
  options.inter_arrival = 10.0;
  const ReplayResult spaced = replay_trace(scheme, trace, options);
  EXPECT_GT(spaced.duration, tight.duration);
}

TEST(AccessReplay, FullReplicationMeansOnlyWriteTraffic) {
  const core::Problem p = testing::small_random_problem(12, 6, 5, 5.0, 2000.0);
  core::ReplicationScheme scheme(p);
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    for (core::ObjectId k = 0; k < p.objects(); ++k) scheme.add(i, k);
  }
  util::Rng rng(13);
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult result = replay_trace(scheme, trace);
  EXPECT_EQ(result.remote_reads, 0u);
  EXPECT_NEAR(result.traffic.data_traffic, core::total_cost(scheme), 1e-6);
}

TEST(AccessReplay, ReadLatencyHandComputed) {
  core::Problem p = testing::line3_problem(10.0);
  p.set_reads(2, 0, 2.0);  // remote reads over C=2: round trip 4
  p.set_reads(0, 0, 3.0);  // local at the primary: 0
  const core::ReplicationScheme scheme(p);
  util::Rng rng(20);
  const auto trace = workload::build_trace(p, rng);
  ReplayOptions options;
  options.latency_per_cost = 1.0;
  const ReplayResult result = replay_trace(scheme, trace, options);
  EXPECT_EQ(result.read_latency.count(), 5u);
  EXPECT_DOUBLE_EQ(result.read_latency.max(), 4.0);
  EXPECT_DOUBLE_EQ(result.read_latency.min(), 0.0);
  EXPECT_NEAR(result.read_latency.mean(), (2.0 * 4.0) / 5.0, 1e-12);
}

TEST(AccessReplay, WriteLatencyIncludesSlowestBroadcastLeg) {
  core::Problem p = testing::line3_problem(10.0);
  p.set_writes(1, 0, 1.0);
  core::ReplicationScheme scheme(p);
  scheme.add(2, 0);
  util::Rng rng(21);
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult result = replay_trace(scheme, trace);
  // Ship 1->0 (cost 1) then broadcast 0->2 (cost 2): visibility 3.
  EXPECT_EQ(result.write_latency.count(), 1u);
  EXPECT_DOUBLE_EQ(result.write_latency.mean(), 3.0);
}

TEST(AccessReplay, ReplicationReducesMeanReadLatency) {
  const core::Problem p = testing::small_random_problem(14, 10, 8, 2.0, 50.0);
  const core::ReplicationScheme primary_only(p);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  util::Rng rng(15);
  const auto trace = workload::build_trace(p, rng);
  const ReplayResult before = replay_trace(primary_only, trace);
  const ReplayResult after = replay_trace(sra.scheme, trace);
  EXPECT_LT(after.read_latency.mean(), before.read_latency.mean());
}

TEST(AccessReplay, EmptyTraceIsFree) {
  const core::Problem p = testing::line3_problem();
  const core::ReplicationScheme scheme(p);
  const ReplayResult result = replay_trace(scheme, {});
  EXPECT_DOUBLE_EQ(result.traffic.data_traffic, 0.0);
  EXPECT_EQ(result.traffic.total_messages(), 0u);
}

}  // namespace
}  // namespace drep::sim
