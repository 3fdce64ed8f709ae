// Conformance suite for the decentralized adaptive retune (DESIGN.md
// Section 15): when exactly one site drifts, its local view is the global
// observed problem, so the decentralized round reproduces the central
// monitor's registry "agra" solve bit for bit; dissemination is exact on a
// perfect network and degrades gracefully under seeded loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algo/gra.hpp"
#include "algo/solver.hpp"
#include "algo/sra.hpp"
#include "audit/invariants.hpp"
#include "dist/dagra.hpp"
#include "sim/fault_plan.hpp"
#include "testing/builders.hpp"

namespace drep::dist {
namespace {

constexpr core::SiteId kDriftSite = 2;

core::Problem drifted_copy(const core::Problem& baseline) {
  core::Problem observed = baseline;
  // Site 2's interest in the first three objects explodes tenfold — a
  // localized pattern change only that site can observe directly.
  for (core::ObjectId k = 0; k < 3; ++k) {
    observed.set_reads(kDriftSite, k, 10.0 * baseline.reads(kDriftSite, k));
  }
  return observed;
}

DadaptOptions base_options(const core::Problem& baseline) {
  DadaptOptions options;
  options.agra.population = 8;
  options.agra.generations = 6;
  options.current_scheme = algo::primary_chromosome(baseline);
  options.drift_threshold_percent = 150.0;
  options.change_threshold_percent = 50.0;
  options.seed = 7;
  options.trace_seed = 11;
  return options;
}

// The single-drift equivalence: the decentralized round's assembled scheme
// is the central monitor's registry "agra" result, bit for bit.
TEST(DagraConformance, SingleDriftMatchesCentralizedAgra) {
  const core::Problem baseline = testing::small_random_problem(13);
  const core::Problem observed = drifted_copy(baseline);
  const DadaptOptions options = base_options(baseline);
  const DadaptResult dist = run_decentralized_adapt(baseline, observed,
                                                    options);

  ASSERT_EQ(dist.drifted_sites, std::vector<core::SiteId>{kDriftSite});
  ASSERT_FALSE(dist.changed_objects.empty());
  ASSERT_EQ(dist.retunes_run, 1u);

  // The central path: the same registry adapter over the full observed
  // problem with an identical adapt context and seed.
  algo::SolverOptions solver_options;
  solver_options.agra = options.agra;
  solver_options.common = options.agra.common;
  solver_options.common.seed = options.seed;
  algo::SolveRequest request{observed, std::move(solver_options)};
  request.adapt = algo::AdaptContext{&options.current_scheme,
                                     options.retained_population,
                                     dist.changed_objects};
  const algo::SolveResponse central =
      algo::solver_registry().at("agra").solve(request);

  EXPECT_EQ(dist.result.scheme.matrix(), central.result.scheme.matrix());
  EXPECT_DOUBLE_EQ(dist.result.cost, central.result.cost);
  EXPECT_EQ(dist.directives_failed, 0u);
  EXPECT_EQ(dist.directives_rejected, 0u);
  for (const auto& log : dist.envelope_logs)
    EXPECT_TRUE(audit::check_envelope_log(log).empty());
}

// No drift, no retune: every site's observations match the baseline, the
// round is a no-op, and the network carries nothing.
TEST(DagraConformance, NoDriftIsANoOp) {
  const core::Problem baseline = testing::small_random_problem(13);
  const DadaptOptions options = base_options(baseline);
  const DadaptResult dist = run_decentralized_adapt(baseline, baseline,
                                                    options);
  EXPECT_TRUE(dist.drifted_sites.empty());
  EXPECT_EQ(dist.retunes_run, 0u);
  EXPECT_EQ(dist.updates_sent, 0u);
  EXPECT_EQ(dist.traffic.total_messages(), 0u);
  EXPECT_EQ(dist.result.scheme.matrix(), options.current_scheme);
}

// Perfect-network accounting: one lane per destination (self included),
// every changed column first-transmitted exactly once per lane, every
// update applied or recorded as a no-op, nothing ignored or failed.
TEST(DagraConformance, PerfectNetworkDisseminationIsExact) {
  const core::Problem baseline = testing::small_random_problem(13);
  const core::Problem observed = drifted_copy(baseline);
  const DadaptOptions options = base_options(baseline);
  const DadaptResult dist = run_decentralized_adapt(baseline, observed,
                                                    options);
  const std::size_t expected =
      dist.changed_objects.size() * baseline.sites();
  EXPECT_EQ(dist.updates_sent, expected);
  EXPECT_EQ(dist.updates_applied, expected);
  EXPECT_EQ(dist.updates_ignored, 0u);
  EXPECT_EQ(dist.retry_stats.retries, 0u);
  EXPECT_EQ(dist.retry_stats.duplicates, 0u);
}

// Seeded loss: the retry layer engages, the round still terminates, the
// assembled scheme is valid, and the per-site logs stay monotonic.
TEST(DagraConformance, SeededLossDegradesGracefully) {
  const core::Problem baseline = testing::small_random_problem(13);
  const core::Problem observed = drifted_copy(baseline);
  DadaptOptions options = base_options(baseline);
  options.faults = sim::FaultPlan::parse("seed=9,drop=0.2");
  const DadaptResult dist = run_decentralized_adapt(baseline, observed,
                                                    options);
  EXPECT_EQ(dist.retunes_run, 1u);
  EXPECT_GT(dist.traffic.dropped_messages(), 0u);
  EXPECT_TRUE(audit::check_scheme(dist.result.scheme).empty());
  for (const auto& log : dist.envelope_logs)
    EXPECT_TRUE(audit::check_envelope_log(log).empty());
  // Whatever was applied, the assembled cost is a real evaluation of a
  // valid scheme under the observed patterns.
  EXPECT_GT(dist.result.cost, 0.0);
}

// Faulty rounds are repeatable: same plan, same seeds, same bits.
TEST(DagraConformance, FaultyRoundIsDeterministic) {
  const core::Problem baseline = testing::small_random_problem(13);
  const core::Problem observed = drifted_copy(baseline);
  std::vector<DadaptResult> runs;
  for (int repeat = 0; repeat < 2; ++repeat) {
    DadaptOptions options = base_options(baseline);
    options.faults = sim::FaultPlan::parse("seed=9,drop=0.2");
    runs.push_back(run_decentralized_adapt(baseline, observed, options));
  }
  EXPECT_EQ(runs[0].result.scheme.matrix(), runs[1].result.scheme.matrix());
  EXPECT_EQ(runs[0].updates_applied, runs[1].updates_applied);
  EXPECT_EQ(runs[0].retry_stats.retries, runs[1].retry_stats.retries);
}

// Several concurrent retuners under 20% loss: a replica fetch whose
// response arrives after a later fetch's response to the same holder is
// still pending and must complete (a per-sender watermark would discard it
// and fail the directive). Every directive succeeds with this budget.
TEST(DagraConformance, OvertakenFetchResponsesComplete) {
  for (const std::uint64_t seed : {5u, 6u, 16u}) {
    const core::Problem baseline = testing::small_random_problem(seed);
    core::Problem observed = baseline;
    for (const core::SiteId site : {1u, 2u, 3u, 5u}) {
      for (core::ObjectId k = 0; k < 8; ++k)
        observed.set_reads(site, k, 10.0 * baseline.reads(site, k) + 5.0);
    }
    DadaptOptions options = base_options(baseline);
    options.faults =
        sim::FaultPlan::parse("seed=" + std::to_string(seed) + ",drop=0.2");
    const DadaptResult dist =
        run_decentralized_adapt(baseline, observed, options);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_FALSE(dist.drifted_sites.empty());
    EXPECT_EQ(dist.directives_failed, 0u);
    EXPECT_TRUE(audit::check_scheme(dist.result.scheme).empty());
    for (const auto& log : dist.envelope_logs)
      EXPECT_TRUE(audit::check_envelope_log(log).empty());
  }
}

// One seeded drop+spike+crash round with every counter pinned. Three sites
// drift and retune concurrently over an SRA scheme, so replica gains fetch
// from real replicas: fetches retry, fall back to the primary, and one gives
// up. The counters pin the order of every send, retry timer and fault-RNG
// draw of the dissemination and fetch legs.
TEST(DagraConformance, DropSpikeCrashRunIsPinned) {
  const core::Problem baseline = testing::small_random_problem(19);
  core::Problem observed = baseline;
  for (const core::SiteId site : {1u, 2u, 3u, 5u}) {
    for (core::ObjectId k = 0; k < 8; ++k)
      observed.set_reads(site, k, 10.0 * baseline.reads(site, k) + 5.0);
  }
  DadaptOptions options = base_options(baseline);
  options.current_scheme = algo::solve_sra(baseline).scheme.matrix();
  options.drift_threshold_percent = 100.0;
  options.faults = sim::FaultPlan::parse(
      "seed=7,drop=0.15,spike=0.2,spikex=3,crash=6@20..400");
  options.retry.max_retries = 2;
  const DadaptResult dist = run_decentralized_adapt(baseline, observed,
                                                    options);
  EXPECT_EQ(dist.drifted_sites, (std::vector<core::SiteId>{2, 3, 5}));
  EXPECT_EQ(dist.retunes_run, 3u);
  EXPECT_EQ(dist.changed_objects.size(), 8u);
  EXPECT_EQ(dist.traffic.sent_messages, 492u);
  EXPECT_EQ(dist.traffic.data_messages, 20u);
  EXPECT_EQ(dist.traffic.control_messages, 379u);
  EXPECT_EQ(dist.traffic.dropped_link, 77u);
  EXPECT_EQ(dist.traffic.dropped_site_down, 16u);
  EXPECT_EQ(dist.traffic.latency_spikes, 74u);
  EXPECT_EQ(dist.traffic.data_traffic, 1437.0);
  EXPECT_EQ(dist.retry_stats.retries, 88u);
  EXPECT_EQ(dist.retry_stats.timeouts, 99u);
  EXPECT_EQ(dist.retry_stats.give_ups, 11u);
  EXPECT_EQ(dist.retry_stats.duplicates, 36u);
  EXPECT_EQ(dist.updates_sent, 168u);
  EXPECT_EQ(dist.updates_applied, 136u);
  EXPECT_EQ(dist.updates_ignored, 26u);
  EXPECT_EQ(dist.directives_failed, 1u);
  EXPECT_EQ(dist.directives_rejected, 10u);
  EXPECT_EQ(dist.round_time, 516.0);
  EXPECT_EQ(dist.result.cost, 635052.0);
  EXPECT_TRUE(audit::check_scheme(dist.result.scheme).empty());
}

TEST(DagraConformance, OptionValidation) {
  const core::Problem baseline = testing::small_random_problem(13);
  DadaptOptions options = base_options(baseline);
  options.drift_threshold_percent = -1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);

  options = base_options(baseline);
  options.current_scheme.pop_back();
  EXPECT_THROW((void)run_decentralized_adapt(baseline, baseline, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace drep::dist
