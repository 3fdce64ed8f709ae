// Fault-injection layer: FaultPlan parsing and semantics, seeded
// determinism, the zero-rate equivalence property (an armed plan with zero
// rates replays to exactly the analytic D — the retry layer costs nothing
// when nothing fails), protocol convergence under seeded message loss, and
// crash/skip/rejoin behavior.

#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algo/sra.hpp"
#include "core/cost_model.hpp"
#include "sim/access_replay.hpp"
#include "sim/distributed_sra.hpp"
#include "sim/monitor_protocol.hpp"
#include "testing/builders.hpp"
#include "workload/generator.hpp"
#include "workload/pattern_change.hpp"
#include "workload/trace.hpp"

namespace drep::sim {
namespace {

TEST(FaultPlanParse, FullSpecRoundTrips) {
  const FaultPlan plan =
      FaultPlan::parse("seed=7,drop=0.1,spike=0.05,spikex=4,crash=2@10..500,"
                       "crash=0@5..");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.drop_probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.spike_probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.spike_factor, 4.0);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].site, 2u);
  EXPECT_DOUBLE_EQ(plan.crashes[0].from, 10.0);
  EXPECT_DOUBLE_EQ(plan.crashes[0].until, 500.0);
  EXPECT_EQ(plan.crashes[1].site, 0u);
  EXPECT_TRUE(std::isinf(plan.crashes[1].until));  // empty UNTIL = forever
}

TEST(FaultPlanParse, EmptySpecIsAnArmedZeroRatePlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_DOUBLE_EQ(plan.drop_probability, 0.0);
  EXPECT_DOUBLE_EQ(plan.spike_probability, 0.0);
  EXPECT_TRUE(plan.crashes.empty());
}

TEST(FaultPlanParse, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultPlan::parse("bogus"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop=maybe"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash=1@5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("spikex=0.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash=1@9..3"), std::invalid_argument);
  // Integers are decimal digits within their type: no sign, no blanks, no
  // wrap-around past 2^64 - 1 or past the SiteId range.
  EXPECT_THROW((void)FaultPlan::parse("seed=-1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("seed=+1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("seed= 1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("seed=99999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash=4294967296@0..40"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash=-4294967295@0..5"),
               std::invalid_argument);
  EXPECT_EQ(FaultPlan::parse("seed=18446744073709551615").seed,
            ~std::uint64_t{0});
  EXPECT_EQ(FaultPlan::parse("crash=4294967295@0..5").crashes.at(0).site,
            4294967295u);
}

TEST(FaultPlan, SiteDownTracksWindows) {
  FaultPlan plan;
  plan.crashes.push_back({1, 10.0, 20.0});
  plan.crashes.push_back({3, 0.0, std::numeric_limits<double>::infinity()});
  EXPECT_FALSE(plan.site_down(1, 9.9));
  EXPECT_TRUE(plan.site_down(1, 10.0));  // [from, until)
  EXPECT_TRUE(plan.site_down(1, 19.9));
  EXPECT_FALSE(plan.site_down(1, 20.0));
  EXPECT_TRUE(plan.site_down(3, 1e12));
  EXPECT_FALSE(plan.site_down(0, 15.0));
  EXPECT_EQ(plan.down_sites(5, 15.0), (std::vector<net::SiteId>{1, 3}));
  EXPECT_EQ(plan.down_sites(5, 25.0), (std::vector<net::SiteId>{3}));
  EXPECT_EQ(plan.crashed_sites(), (std::vector<net::SiteId>{1, 3}));
}

TEST(FaultPlan, SiteAvailabilityFromCrashWindows) {
  FaultPlan plan;
  plan.crashes.push_back({1, 10.0, 20.0});
  plan.crashes.push_back({1, 15.0, 30.0});  // overlaps — merged, not summed
  plan.crashes.push_back({2, 0.0, std::numeric_limits<double>::infinity()});
  const std::vector<double> availability = plan.site_availability(4, 100.0);
  ASSERT_EQ(availability.size(), 4u);
  EXPECT_DOUBLE_EQ(availability[0], 1.0);   // never crashed
  EXPECT_DOUBLE_EQ(availability[1], 0.8);   // down [10, 30) of 100
  EXPECT_DOUBLE_EQ(availability[2], 0.0);   // open-ended, clipped to horizon
  EXPECT_DOUBLE_EQ(availability[3], 1.0);
}

TEST(FaultPlan, SiteAvailabilityAutoHorizon) {
  FaultPlan plan;
  plan.crashes.push_back({0, 10.0, 30.0});
  plan.crashes.push_back({1, 10.0, 50.0});
  // Auto horizon = latest finite edge = 50: site 0 down 20/50, site 1 40/50.
  const std::vector<double> availability = plan.site_availability(2);
  EXPECT_DOUBLE_EQ(availability[0], 0.6);
  EXPECT_DOUBLE_EQ(availability[1], 0.2);
  // Windows past the horizon don't contribute.
  const std::vector<double> clipped = plan.site_availability(2, 20.0);
  EXPECT_DOUBLE_EQ(clipped[0], 0.5);
  EXPECT_DOUBLE_EQ(clipped[1], 0.5);
}

TEST(FaultPlan, SiteAvailabilityOfEmptyPlanIsPerfect) {
  const FaultPlan plan;
  const std::vector<double> availability = plan.site_availability(3);
  for (const double a : availability) EXPECT_DOUBLE_EQ(a, 1.0);
}

TEST(RetryPolicy, TimeoutLadder) {
  RetryPolicy policy;
  policy.backoff = 2.0;
  policy.max_retries = 3;
  EXPECT_DOUBLE_EQ(policy.resolve_base(10.0), 40.0);  // auto: 4x worst leg
  EXPECT_DOUBLE_EQ(policy.resolve_base(0.0), 1.0);    // floor for free nets
  policy.base_timeout = 8.0;
  EXPECT_DOUBLE_EQ(policy.resolve_base(10.0), 8.0);   // explicit wins
  EXPECT_DOUBLE_EQ(policy.timeout_for(8.0, 0), 8.0);
  EXPECT_DOUBLE_EQ(policy.timeout_for(8.0, 2), 32.0);
  // 8 + 16 + 32 + 64.
  EXPECT_DOUBLE_EQ(policy.give_up_time(8.0), 120.0);
}

// --- the zero-rate equivalence property ------------------------------------

TEST(FaultInjection, ZeroRatePlanReplaysToAnalyticDExactly) {
  const core::Problem p = testing::small_random_problem(11, 10, 12);
  util::Rng rng(1);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  util::Rng trng(2);
  const auto trace = workload::build_trace(p, trng);

  const ReplayResult healthy = replay_trace(sra.scheme, trace);

  ReplayOptions options;
  options.faults = FaultPlan{};  // armed, all rates zero: retry timers run,
                                 // dedup runs, but nothing ever fails
  const ReplayResult armed = replay_trace(sra.scheme, trace, options);

  // Bit-for-bit: the retry layer must be traffic-invisible when idle.
  EXPECT_DOUBLE_EQ(armed.traffic.data_traffic, core::total_cost(sra.scheme));
  EXPECT_DOUBLE_EQ(armed.traffic.data_traffic, healthy.traffic.data_traffic);
  EXPECT_EQ(armed.traffic.data_messages, healthy.traffic.data_messages);
  EXPECT_EQ(armed.retry_stats.retries, 0u);
  EXPECT_EQ(armed.retry_stats.give_ups, 0u);
  EXPECT_EQ(armed.degraded_reads, 0u);
  EXPECT_EQ(armed.failed_reads, 0u);
  EXPECT_EQ(armed.failed_writes, 0u);
  EXPECT_EQ(armed.stale_replica_updates, 0u);
  EXPECT_EQ(armed.local_reads, healthy.local_reads);
  EXPECT_EQ(armed.remote_reads, healthy.remote_reads);
  // Measured read latency equals the analytic round trip request by
  // request, so the aggregates agree exactly.
  EXPECT_DOUBLE_EQ(armed.read_latency.mean(), healthy.read_latency.mean());
}

TEST(FaultInjection, ZeroRateDistributedSraMatchesPerfectNetwork) {
  const core::Problem p = testing::small_random_problem(12, 9, 10);
  const DistributedSraResult healthy = run_distributed_sra(p);
  DistributedSraOptions options;
  options.faults = FaultPlan{};
  const DistributedSraResult armed = run_distributed_sra(p, options);
  EXPECT_EQ(armed.scheme.matrix(), healthy.scheme.matrix());
  EXPECT_DOUBLE_EQ(armed.traffic.data_traffic, healthy.traffic.data_traffic);
  EXPECT_EQ(armed.traffic.data_messages, healthy.traffic.data_messages);
  // The leader's grant timer may fire during a long (but healthy) visit and
  // retransmit a control message — harmless and dedup'd — so only the
  // terminal counters are asserted zero here.
  EXPECT_EQ(armed.retry_stats.give_ups, 0u);
  EXPECT_EQ(armed.sites_skipped, 0u);
  EXPECT_EQ(armed.rejoins, 0u);
  EXPECT_EQ(armed.traffic.dropped_link, 0u);
  EXPECT_EQ(armed.traffic.dropped_site_down, 0u);
}

// --- seeded determinism ----------------------------------------------------

TEST(FaultInjection, SamePlanSameWorkloadIsBitIdentical) {
  const core::Problem p = testing::small_random_problem(13, 8, 10);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  util::Rng trng(3);
  const auto trace = workload::build_trace(p, trng);

  ReplayOptions options;
  options.faults = FaultPlan::parse("seed=5,drop=0.15,spike=0.1,spikex=3");
  const ReplayResult a = replay_trace(sra.scheme, trace, options);
  const ReplayResult b = replay_trace(sra.scheme, trace, options);
  EXPECT_DOUBLE_EQ(a.traffic.data_traffic, b.traffic.data_traffic);
  EXPECT_EQ(a.traffic.data_messages, b.traffic.data_messages);
  EXPECT_EQ(a.traffic.dropped_link, b.traffic.dropped_link);
  EXPECT_EQ(a.traffic.latency_spikes, b.traffic.latency_spikes);
  EXPECT_EQ(a.retry_stats.retries, b.retry_stats.retries);
  EXPECT_EQ(a.retry_stats.timeouts, b.retry_stats.timeouts);
  EXPECT_EQ(a.failed_reads, b.failed_reads);
  EXPECT_EQ(a.failed_writes, b.failed_writes);
  EXPECT_GT(a.traffic.dropped_link, 0u);  // the plan actually bit
}

TEST(FaultInjection, DifferentSeedsDrawDifferentFaults) {
  const core::Problem p = testing::small_random_problem(13, 8, 10);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  util::Rng trng(3);
  const auto trace = workload::build_trace(p, trng);

  ReplayOptions options;
  options.faults = FaultPlan::parse("seed=5,drop=0.15");
  const ReplayResult a = replay_trace(sra.scheme, trace, options);
  options.faults->seed = 6;
  const ReplayResult b = replay_trace(sra.scheme, trace, options);
  EXPECT_NE(a.traffic.dropped_link, b.traffic.dropped_link);
}

// --- distributed SRA under loss and crashes --------------------------------

TEST(FaultInjection, DistributedSraConvergesUnderTwentyPercentLoss) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const core::Problem p = testing::small_random_problem(seed, 8, 10);
    const algo::AlgorithmResult centralized = algo::solve_sra(p);
    DistributedSraOptions options;
    options.faults = FaultPlan::parse("seed=9,drop=0.2");
    options.retry.max_retries = 10;  // enough budget that nothing gives up
    const DistributedSraResult result = run_distributed_sra(p, options);
    EXPECT_EQ(result.retry_stats.give_ups, 0u) << "seed " << seed;
    EXPECT_EQ(result.sites_skipped, 0u) << "seed " << seed;
    // Pure message loss costs retransmissions, never the result.
    EXPECT_EQ(result.scheme.matrix(), centralized.scheme.matrix())
        << "seed " << seed;
    EXPECT_GT(result.retry_stats.retries, 0u) << "seed " << seed;
  }
}

TEST(FaultInjection, DistributedSraSkipsAPermanentlyCrashedSite) {
  const core::Problem p = testing::small_random_problem(21, 8, 10);
  DistributedSraOptions options;
  options.faults = FaultPlan::parse("crash=2@0..");
  options.retry.max_retries = 2;  // auto base keeps healthy exchanges safe
  const DistributedSraResult result = run_distributed_sra(p, options);
  EXPECT_EQ(result.sites_skipped, 1u);
  EXPECT_EQ(result.rejoins, 0u);
  EXPECT_TRUE(result.scheme.is_valid());
  // The crashed site never replicates anything beyond its primaries.
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    if (p.primary(k) != 2)
      EXPECT_FALSE(result.scheme.has_replica(2, k)) << "object " << k;
  }
}

TEST(FaultInjection, SkippedSiteRejoinsAfterRecovery) {
  const core::Problem p = testing::small_random_problem(22, 6, 8);
  DistributedSraOptions options;
  // max_retries=2 shortens the leader's grant patience to 6 retries on a
  // base of at most 4×10 (auto: 4× the worst link cost the generator can
  // draw), so site 1 is skipped before t ≈ 5700; it recovers at t=20000,
  // well after, and must be re-admitted.
  options.faults = FaultPlan::parse("crash=1@0..20000");
  options.retry.max_retries = 2;
  const DistributedSraResult result = run_distributed_sra(p, options);
  EXPECT_EQ(result.sites_skipped, 1u);
  EXPECT_EQ(result.rejoins, 1u);
  EXPECT_TRUE(result.scheme.is_valid());
  EXPECT_GE(result.duration, 20000.0);  // the run outlived the recovery
}

TEST(FaultInjection, PlanCrashingTheLeaderIsRejected) {
  const core::Problem p = testing::small_random_problem(23, 6, 8);
  DistributedSraOptions options;
  options.faults = FaultPlan::parse("crash=0@100..200");
  EXPECT_THROW((void)run_distributed_sra(p, options), std::invalid_argument);
}

// --- monitor retune round under faults -------------------------------------

MonitorConfig fast_monitor() {
  MonitorConfig config;
  config.gra.population = 8;
  config.gra.generations = 8;
  config.agra.population = 8;
  config.agra.generations = 15;
  config.agra.mini_gra_generations = 5;
  config.agra.mini_gra = config.gra;
  return config;
}

/// Shifts the request patterns AFTER the monitor has adopted its baseline,
/// so the retune round has real adaptations to roll out.
void apply_drift(core::Problem& p, std::uint64_t seed) {
  workload::PatternChangeConfig change;
  change.change_percent = 600.0;
  change.objects_percent = 30.0;
  change.read_share_percent = 70.0;
  util::Rng crng(seed + 1);
  (void)workload::apply_pattern_change(p, change, crng);
}

TEST(FaultInjection, ZeroRateRetuneRoundRollsOutExactly) {
  core::Problem p = testing::small_random_problem(31, 10, 12, 5.0, 15.0);
  util::Rng rng(4);
  Monitor monitor(p, fast_monitor(), rng);
  apply_drift(p, 31);
  RetuneOptions options;
  options.monitor_site = 2;
  options.faults = FaultPlan{};
  const RetuneReport report = run_retune_round(p, monitor, options, rng);
  EXPECT_GT(report.replicas_added + report.replicas_dropped, 0u);
  EXPECT_NEAR(report.traffic.data_traffic, report.migration_traffic, 1e-9);
  EXPECT_EQ(report.retry_stats.retries, 0u);
  EXPECT_EQ(report.retry_stats.give_ups, 0u);
  EXPECT_EQ(report.reports_missing, 0u);
  EXPECT_EQ(report.directives_failed, 0u);
}

TEST(FaultInjection, RetuneRoundSurvivesMessageLoss) {
  core::Problem p = testing::small_random_problem(32, 10, 12, 5.0, 15.0);
  util::Rng rng(5);
  Monitor monitor(p, fast_monitor(), rng);
  apply_drift(p, 32);
  RetuneOptions options;
  options.monitor_site = 0;
  options.faults = FaultPlan::parse("seed=11,drop=0.2");
  options.retry.max_retries = 10;
  const RetuneReport report = run_retune_round(p, monitor, options, rng);
  // Enough retry budget: every stats report and directive eventually lands.
  EXPECT_EQ(report.reports_missing, 0u);
  EXPECT_EQ(report.directives_failed, 0u);
  EXPECT_GT(report.retry_stats.retries, 0u);
  // Retransmitted fetches can only add traffic, never lose any.
  EXPECT_GE(report.traffic.data_traffic, report.migration_traffic - 1e-9);
}

TEST(FaultInjection, RetuneRoundCountsACrashedSiteAsMissing) {
  core::Problem p = testing::small_random_problem(33, 10, 12, 5.0, 15.0);
  util::Rng rng(6);
  Monitor monitor(p, fast_monitor(), rng);
  apply_drift(p, 33);
  RetuneOptions options;
  options.monitor_site = 0;
  options.faults = FaultPlan::parse("crash=3@0..");
  options.retry.max_retries = 2;  // auto base keeps healthy reports on time
  const RetuneReport report = run_retune_round(p, monitor, options, rng);
  EXPECT_EQ(report.reports_missing, 1u);  // site 3 never reported
  EXPECT_TRUE(report.traffic.dropped_site_down > 0u);
}

TEST(FaultInjection, PlanCrashingTheMonitorSiteIsRejected) {
  core::Problem p = testing::small_random_problem(34, 10, 12, 5.0, 15.0);
  util::Rng rng(7);
  Monitor monitor(p, fast_monitor(), rng);
  apply_drift(p, 34);
  RetuneOptions options;
  options.monitor_site = 1;
  options.faults = FaultPlan::parse("crash=1@50..60");
  EXPECT_THROW((void)run_retune_round(p, monitor, options, rng),
               std::invalid_argument);
}

// --- degraded read routing in the replay -----------------------------------

TEST(FaultInjection, ReadsFallBackToTheNearestLiveReplica) {
  // Line 0--1--2, object primaried at 0 and replicated at 1. Site 2's
  // nearest is 1 (cost 1); with 1 crashed the read degrades to the primary
  // at cost 2 instead of failing.
  const core::Problem p = testing::line3_problem(10.0);
  core::ReplicationScheme scheme(p);
  scheme.add(1, 0);
  const std::vector<workload::Request> trace{{2, 0, false}};

  ReplayOptions options;
  options.faults = FaultPlan::parse("crash=1@0..");
  const ReplayResult result = replay_trace(scheme, trace, options);
  EXPECT_EQ(result.degraded_reads, 1u);
  EXPECT_EQ(result.failed_reads, 0u);
  EXPECT_EQ(result.remote_reads, 1u);
  // One object of 10 units over cost 2 instead of cost 1.
  EXPECT_DOUBLE_EQ(result.traffic.data_traffic, 20.0);
}

TEST(FaultInjection, ReadsFailWhenEveryReplicaIsDown) {
  const core::Problem p = testing::line3_problem(10.0);
  core::ReplicationScheme scheme(p);
  scheme.add(1, 0);
  const std::vector<workload::Request> trace{{2, 0, false}};

  ReplayOptions options;
  options.faults = FaultPlan::parse("crash=0@0..,crash=1@0..");
  const ReplayResult result = replay_trace(scheme, trace, options);
  EXPECT_EQ(result.failed_reads, 1u);
  EXPECT_EQ(result.remote_reads, 0u);
  EXPECT_DOUBLE_EQ(result.traffic.data_traffic, 0.0);
}

TEST(FaultInjection, WritesFailWhenThePrimaryIsDown) {
  const core::Problem p = testing::line3_problem(10.0);
  const core::ReplicationScheme scheme(p);
  const std::vector<workload::Request> trace{{2, 0, true}};

  ReplayOptions options;
  options.faults = FaultPlan::parse("crash=0@0..");
  const ReplayResult result = replay_trace(scheme, trace, options);
  EXPECT_EQ(result.failed_writes, 1u);
  EXPECT_DOUBLE_EQ(result.traffic.data_traffic, 0.0);
}

// --- pinned faulty runs ----------------------------------------------------
//
// One seeded drop+spike+crash run of each sim protocol with every counter
// pinned. These exchanges are matched by exact id, so spikes reorder
// nothing they depend on: the counters pin the order of every send, retry
// timer and fault-RNG draw, and any drift means the protocol's delivery
// schedule changed.

void expect_traffic(const TrafficStats& t, std::size_t sent, std::size_t data,
                    std::size_t control, std::size_t dropped_link,
                    std::size_t dropped_site_down, std::size_t spikes) {
  EXPECT_EQ(t.sent_messages, sent);
  EXPECT_EQ(t.data_messages, data);
  EXPECT_EQ(t.control_messages, control);
  EXPECT_EQ(t.dropped_link, dropped_link);
  EXPECT_EQ(t.dropped_site_down, dropped_site_down);
  EXPECT_EQ(t.latency_spikes, spikes);
}

void expect_retries(const RetryStats& r, std::size_t retries,
                    std::size_t timeouts, std::size_t give_ups,
                    std::size_t duplicates) {
  EXPECT_EQ(r.retries, retries);
  EXPECT_EQ(r.timeouts, timeouts);
  EXPECT_EQ(r.give_ups, give_ups);
  EXPECT_EQ(r.duplicates, duplicates);
}

TEST(FaultInjectionGolden, DistributedSraDropSpikeCrash) {
  const core::Problem p = testing::small_random_problem(21, 8, 10);
  DistributedSraOptions options;
  options.faults = FaultPlan::parse(
      "seed=3,drop=0.15,spike=0.2,spikex=3,crash=3@100..8000");
  options.retry.max_retries = 2;
  const DistributedSraResult result = run_distributed_sra(p, options);
  expect_traffic(result.traffic, 312, 9, 210, 47, 46, 41);
  EXPECT_DOUBLE_EQ(result.traffic.data_traffic, 1299.0);
  expect_retries(result.retry_stats, 113, 105, 17, 37);
  EXPECT_EQ(result.sites_skipped, 1u);
  EXPECT_EQ(result.rejoins, 1u);
  EXPECT_EQ(result.token_passes, 24u);
  EXPECT_EQ(result.replications, 9u);
  EXPECT_DOUBLE_EQ(result.duration, 8027.0);
}

TEST(FaultInjectionGolden, RetuneRoundDropSpikeCrash) {
  core::Problem p = testing::small_random_problem(33, 10, 12, 5.0, 15.0);
  util::Rng rng(6);
  Monitor monitor(p, fast_monitor(), rng);
  apply_drift(p, 33);
  RetuneOptions options;
  options.monitor_site = 0;
  options.faults = FaultPlan::parse(
      "seed=4,drop=0.15,spike=0.2,spikex=3,crash=3@100..3000");
  const RetuneReport report = run_retune_round(p, monitor, options, rng);
  expect_traffic(report.traffic, 53, 2, 37, 8, 6, 12);
  EXPECT_DOUBLE_EQ(report.traffic.data_traffic, 264.0);
  expect_retries(report.retry_stats, 13, 14, 1, 1);
  EXPECT_EQ(report.reports_missing, 0u);
  EXPECT_EQ(report.directives_failed, 1u);
  EXPECT_EQ(report.replicas_added, 2u);
  EXPECT_EQ(report.replicas_dropped, 7u);
  EXPECT_DOUBLE_EQ(report.round_time, 4682.0);
}

// The migration fetches under a two-retry budget: the monitor site itself
// gains a replica (it fetches without a directive), one fetch falls back
// to the object's primary on its last attempt, and one gives up, so the
// run reaches every branch of the fetch leg.
TEST(FaultInjectionGolden, RetuneRoundFetchFallback) {
  core::Problem p = testing::small_random_problem(39, 10, 12, 5.0, 15.0);
  util::Rng rng(139);
  Monitor monitor(p, fast_monitor(), rng);
  apply_drift(p, 39);
  RetuneOptions options;
  options.monitor_site = 7;
  options.faults = FaultPlan::parse(
      "seed=10,drop=0.15,spike=0.2,spikex=3,crash=3@100..3000");
  options.retry.max_retries = 2;
  const RetuneReport report = run_retune_round(p, monitor, options, rng);
  expect_traffic(report.traffic, 68, 5, 51, 11, 1, 15);
  EXPECT_DOUBLE_EQ(report.traffic.data_traffic, 390.0);
  EXPECT_DOUBLE_EQ(report.migration_traffic, 436.0);
  expect_retries(report.retry_stats, 13, 14, 1, 5);
  EXPECT_EQ(report.reports_missing, 0u);
  EXPECT_EQ(report.directives_failed, 1u);
  EXPECT_EQ(report.replicas_added, 6u);
  EXPECT_EQ(report.replicas_dropped, 7u);
  EXPECT_DOUBLE_EQ(report.round_time, 3000.0);
}

TEST(FaultInjectionGolden, TraceReplayDropSpikeCrash) {
  const core::Problem p = testing::small_random_problem(13, 8, 10);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  util::Rng trng(3);
  const auto trace = workload::build_trace(p, trng);
  ReplayOptions options;
  options.faults = FaultPlan::parse(
      "seed=5,drop=0.15,spike=0.1,spikex=3,crash=2@50..400");
  options.inter_arrival = 0.5;
  const ReplayResult result = replay_trace(sra.scheme, trace, options);
  expect_traffic(result.traffic, 3120, 1252, 1424, 443, 1, 265);
  EXPECT_DOUBLE_EQ(result.traffic.data_traffic, 169732.0);
  expect_retries(result.retry_stats, 445, 445, 0, 20);
  EXPECT_EQ(result.failed_reads, 81u);
  EXPECT_EQ(result.failed_writes, 9u);
  EXPECT_EQ(result.degraded_reads, 30u);
  EXPECT_EQ(result.stale_replica_updates, 0u);
  EXPECT_EQ(result.remote_reads, 1089u);
  EXPECT_DOUBLE_EQ(result.duration, 1769.0);
}

// The shape of the end-to-end benchmark's paper-adapt workload: one 50×200
// network with its generator settings and the 5% drop plan its replays run
// under. At inter_arrival = 0 every injection shares t=0 and all traffic
// lands on a few hundred integer instants; at a fractional spacing almost
// every event time is distinct. Recorded before the event queue kept one
// bucket per timestamp: the counters pin the order of every event, timer
// and fault-RNG draw in both regimes.

ReplayResult paper_shape_replay(double inter_arrival) {
  workload::GeneratorConfig config;
  config.sites = 50;
  config.objects = 200;
  config.update_ratio_percent = 5.0;
  config.capacity_percent = 15.0;
  util::Rng rng(14);
  const core::Problem p = workload::generate(config, rng);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  util::Rng trng(15);
  const auto trace = workload::build_trace(p, trng);
  ReplayOptions options;
  options.faults = FaultPlan::parse("seed=16,drop=0.05");
  options.inter_arrival = inter_arrival;
  return replay_trace(sra.scheme, trace, options);
}

TEST(FaultInjectionGolden, PaperShapeReplayAllInjectionsAtZero) {
  const ReplayResult result = paper_shape_replay(0.0);
  expect_traffic(result.traffic, 452686, 210549, 219563, 22574, 0, 0);
  expect_retries(result.retry_stats, 22574, 22574, 0, 551);
  EXPECT_EQ(result.duration, 1260.0);
  EXPECT_EQ(result.read_latency.count(), 205225u);
  EXPECT_EQ(result.read_latency.mean(), 6.6783384090632802);
}

TEST(FaultInjectionGolden, PaperShapeReplayDistinctInjectionTimes) {
  const ReplayResult result = paper_shape_replay(0.0137);
  expect_traffic(result.traffic, 452647, 210513, 219561, 22573, 0, 0);
  expect_retries(result.retry_stats, 22573, 22573, 0, 496);
  EXPECT_EQ(result.duration, 5452.6062999999995);
  EXPECT_EQ(result.read_latency.count(), 205225u);
  EXPECT_EQ(result.read_latency.mean(), 6.6925666950908136);
}

// --- static-analysis fold --------------------------------------------------

TEST(FaultInjection, FailuresFoldMatchesExplicitSiteSet) {
  const core::Problem p = testing::small_random_problem(41, 8, 10);
  const algo::AlgorithmResult sra = algo::solve_sra(p);
  FaultPlan plan;
  plan.crashes.push_back({1, 10.0, 20.0});
  plan.crashes.push_back({4, 15.0, 30.0});

  const std::vector<core::SiteId> both{1, 4};
  const DegradedService via_plan = evaluate_with_failures(sra.scheme, plan, 17.0);
  const DegradedService via_set = evaluate_with_failures(sra.scheme, both);
  EXPECT_DOUBLE_EQ(via_plan.read_availability, via_set.read_availability);
  EXPECT_DOUBLE_EQ(via_plan.write_availability, via_set.write_availability);
  EXPECT_EQ(via_plan.objects_lost, via_set.objects_lost);

  // Outside every window the service is fully healthy.
  const DegradedService healthy = evaluate_with_failures(sra.scheme, plan, 50.0);
  EXPECT_DOUBLE_EQ(healthy.read_availability, 1.0);
  EXPECT_DOUBLE_EQ(healthy.write_availability, 1.0);
  EXPECT_EQ(healthy.objects_lost, 0u);
}

}  // namespace
}  // namespace drep::sim
