// Serving engine: trace-mode determinism across worker counts (the
// outcome-log hash contract), retune generation accounting, the timed mode
// with a live retune thread, and config validation.

#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "serve/rcu.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace drep {
namespace {

using serve::ServeConfig;
using serve::ServeReport;

std::vector<workload::Request> build_test_trace(const core::Problem& problem) {
  util::Rng rng(99);
  return workload::build_trace(problem, rng);
}

TEST(ServeTrace, OutcomeLogIsBitIdenticalAcrossWorkerCounts) {
  const core::Problem problem = testing::small_random_problem(21, 10, 12);
  const std::vector<workload::Request> trace = build_test_trace(problem);
  ASSERT_GT(trace.size(), 1000u);

  ServeConfig config;
  config.seed = 5;
  config.batch = 64;
  config.retune_every = trace.size() / 3;
  config.audit = true;

  std::vector<ServeReport> reports;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    config.workers = workers;
    reports.push_back(serve::serve_trace(problem, trace, config));
  }
  ASSERT_EQ(reports.size(), 3u);
  const std::size_t segments =
      (trace.size() + config.retune_every - 1) / config.retune_every;
  EXPECT_EQ(reports[0].generations, segments);
  EXPECT_EQ(reports[0].retunes, segments - 1);
  for (const ServeReport& report : reports) {
    EXPECT_EQ(report.requests, trace.size());
    EXPECT_EQ(report.generations, reports[0].generations);
    EXPECT_EQ(report.outcome_hash, reports[0].outcome_hash);
    // Bit-identical, not approximately equal: the cost log is summed
    // serially in request order regardless of worker count.
    EXPECT_EQ(report.served_cost, reports[0].served_cost);
    EXPECT_EQ(report.retired_pending, 0u);
  }
}

TEST(ServeTrace, NoRetunesMeansOneGeneration) {
  const core::Problem problem = testing::small_random_problem(3, 8, 6);
  const std::vector<workload::Request> trace = build_test_trace(problem);

  ServeConfig config;
  config.workers = 2;
  config.retune_every = 0;
  const ServeReport report = serve::serve_trace(problem, trace, config);
  EXPECT_EQ(report.generations, 1u);
  EXPECT_EQ(report.retunes, 0u);
  EXPECT_EQ(report.requests, trace.size());
  EXPECT_GT(report.served_cost, 0.0);

  // Still deterministic: a single-worker run lands on the same hash.
  config.workers = 1;
  const ServeReport solo = serve::serve_trace(problem, trace, config);
  EXPECT_EQ(solo.outcome_hash, report.outcome_hash);
}

TEST(ServeTrace, RetuneActuallyChangesTheServingGeneration) {
  const core::Problem problem = testing::small_random_problem(13, 8, 6);
  const std::vector<workload::Request> trace = build_test_trace(problem);
  ASSERT_GT(trace.size(), 100u);

  ServeConfig config;
  config.workers = 1;
  config.retune_every = trace.size() / 2;
  const ServeReport with_retunes = serve::serve_trace(problem, trace, config);
  EXPECT_GE(with_retunes.generations, 2u);
  // All snapshots beyond the survivor were reclaimed by the end.
  EXPECT_EQ(with_retunes.reclaimed, with_retunes.generations - 1);
}

TEST(ServeTimed, ServesWithConcurrentRetunesAndReportsPercentiles) {
  const core::Problem problem = testing::small_random_problem(7, 8, 6);

  ServeConfig config;
  config.workers = 2;
  config.batch = 128;
  config.duration_seconds = 0.08;
  config.retune_interval_seconds = 0.02;
  config.audit = true;
  config.load.ring_size = 1 << 10;

  const ServeReport report = serve::serve_timed(problem, config);
  EXPECT_GT(report.requests, 0u);
  EXPECT_GT(report.requests_per_second, 0.0);
  EXPECT_GT(report.served_cost, 0.0);
  EXPECT_GE(report.seconds, config.duration_seconds);
  EXPECT_EQ(report.generations, report.retunes + 1);
  EXPECT_LE(report.p50_us, report.p99_us);
  EXPECT_LE(report.p99_us, report.p999_us);
  // Nothing leaks: every retired snapshot was freed after the workers left.
  EXPECT_EQ(report.retired_pending, 0u);
  EXPECT_EQ(report.reclaimed, report.retunes);
}

TEST(ServeConfig, ValidateRejectsOutOfRangeFields) {
  const core::Problem problem = testing::small_random_problem(1, 6, 4);
  const std::vector<workload::Request> trace = build_test_trace(problem);

  ServeConfig config;
  config.workers = 0;
  EXPECT_THROW((void)serve::serve_trace(problem, trace, config),
               std::invalid_argument);
  config.workers = serve::RcuDomain::kMaxReaders + 1;
  EXPECT_THROW((void)serve::serve_trace(problem, trace, config),
               std::invalid_argument);
  config.workers = 1;
  config.batch = 0;
  EXPECT_THROW((void)serve::serve_trace(problem, trace, config),
               std::invalid_argument);
  config.batch = 256;
  config.load.write_fraction = 1.5;
  EXPECT_THROW((void)serve::serve_timed(problem, config),
               std::invalid_argument);
  config.load.write_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)serve::serve_timed(problem, config),
               std::invalid_argument);
  EXPECT_THROW((void)serve::make_request_ring(problem.sites(),
                                              problem.objects(), config.load,
                                              util::Rng(1)),
               std::invalid_argument);
  config.load.write_fraction = 0.05;
  config.algo = "no-such-solver";
  EXPECT_THROW((void)serve::serve_trace(problem, trace, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace drep
