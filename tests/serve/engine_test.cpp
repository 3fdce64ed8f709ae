// Serving engine: trace-mode determinism across worker counts (the
// outcome-log hash contract), retune generation accounting and the retune
// input, the timed mode with a live retune thread, rejection of partial-row
// instances, and config validation.

#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "algo/solver.hpp"
#include "serve/rcu.hpp"
#include "serve/snapshot.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"
#include "workload/stream_gen.hpp"
#include "workload/trace.hpp"

namespace drep {
namespace {

using serve::ServeConfig;
using serve::ServeReport;

std::vector<workload::Request> build_test_trace(const core::Problem& problem) {
  util::Rng rng(99);
  return workload::build_trace(problem, rng);
}

/// The snapshot serve_trace publishes for `generation`: SRA on `problem`
/// with the generation's seed, one thread.
serve::SchemeSnapshot solve_sra(const core::Problem& problem,
                                std::uint64_t seed, std::uint64_t generation) {
  algo::SolverOptions options;
  options.common.seed = seed ^ (0x9e3779b97f4a7c15ULL * generation);
  options.common.threads = 1;
  const algo::SolveResponse response =
      algo::solver_registry().at("sra").solve({problem, options});
  return serve::SchemeSnapshot::freeze(response.result.scheme, generation);
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
  for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
    config.workers = workers;
    reports.push_back(serve::serve_trace(problem, trace, config));
  }
  ASSERT_EQ(reports.size(), 4u);
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

TEST(ServeTrace, RetunesSolveOnTheCountsOfTheServedPrefix) {
  // Slice g is served by the snapshot solved on the counts of
  // trace[0, g · retune_every), with generation g's seed; the served cost
  // summed in request order over those snapshots is the engine's, exactly.
  const core::Problem problem = testing::small_random_problem(17, 10, 12);
  const std::vector<workload::Request> trace = build_test_trace(problem);
  ASSERT_GT(trace.size(), 300u);

  ServeConfig config;
  config.workers = 3;
  config.seed = 11;
  config.retune_every = trace.size() / 3 + 1;  // three slices
  const ServeReport report = serve::serve_trace(problem, trace, config);
  ASSERT_EQ(report.generations, 3u);

  core::Problem observed = problem;
  observed.clear_demand();
  double expected = 0.0;
  for (std::uint64_t g = 0; g < 3; ++g) {
    const std::size_t lo = g * config.retune_every;
    const std::size_t hi = std::min(trace.size(), lo + config.retune_every);
    const serve::SchemeSnapshot snapshot =
        solve_sra(g == 0 ? problem : observed, config.seed, g);
    for (std::size_t j = lo; j < hi; ++j)
      expected += snapshot
                      .serve(trace[j].site, trace[j].object, trace[j].is_write)
                      .cost;
    workload::count_requests(
        std::span<const workload::Request>(trace).subspan(lo, hi - lo),
        observed);
  }
  EXPECT_EQ(report.served_cost, expected);
}

TEST(ServeTimed, ServesWithConcurrentRetunesAndReportsPercentiles) {
  const core::Problem problem = testing::small_random_problem(7, 8, 6);
  const std::vector<workload::Request> trace = build_test_trace(problem);

  ServeConfig config;
  config.workers = 2;
  config.batch = 128;
  config.duration_seconds = 0.08;
  config.retune_interval_seconds = 0.02;
  config.audit = true;

  const ServeReport report = serve::serve_timed(problem, trace, config);
  EXPECT_GT(report.requests, 0u);
  EXPECT_GT(report.requests_per_second, 0.0);
  EXPECT_GT(report.served_cost, 0.0);
  EXPECT_GE(report.seconds, config.duration_seconds);
  EXPECT_EQ(report.generations, report.retunes + 1);
  // Per-request samples: a pin-serve-unpin takes at least a nanosecond.
  EXPECT_GT(report.p50_us, 0.0);
  EXPECT_LE(report.p50_us, report.p99_us);
  EXPECT_LE(report.p99_us, report.p999_us);
  // Nothing leaks: every retired snapshot was freed after the workers left.
  EXPECT_EQ(report.retired_pending, 0u);
  EXPECT_EQ(report.reclaimed, report.retunes);
}

TEST(ServeTimed, MoreWorkersThanRequests) {
  const core::Problem problem = testing::small_random_problem(7, 8, 6);
  const std::vector<workload::Request> trace = build_test_trace(problem);
  ASSERT_GE(trace.size(), 3u);

  ServeConfig config;
  config.workers = 5;
  config.duration_seconds = 0.02;
  const ServeReport report = serve::serve_timed(
      problem, std::span<const workload::Request>(trace).first(3), config);
  EXPECT_GT(report.requests, 0u);
  EXPECT_GT(report.p50_us, 0.0);
  EXPECT_EQ(report.retired_pending, 0u);
}

TEST(ServeTimed, EmptyTraceServesNoRequestsLikeTraceMode) {
  const core::Problem problem = testing::small_random_problem(7, 8, 6);

  ServeConfig config;
  config.workers = 2;
  config.duration_seconds = 0.01;
  const ServeReport timed = serve::serve_timed(problem, {}, config);
  const ServeReport replayed = serve::serve_trace(problem, {}, config);
  for (const ServeReport& report : {timed, replayed}) {
    EXPECT_EQ(report.requests, 0u);
    EXPECT_EQ(report.served_cost, 0.0);
    EXPECT_EQ(report.generations, 1u);
    EXPECT_EQ(report.retired_pending, 0u);
  }
  EXPECT_EQ(timed.p50_us, 0.0);
}

TEST(ServeTrace, RejectsPartialRowInstances) {
  // The snapshot's serve(i, k) indexes cell k·M + i, which a partial-row
  // table does not have; both entries refuse such an instance up front.
  workload::StreamConfig stream;
  stream.sites = 12;
  stream.objects = 200;
  stream.seed = 3;
  const core::Problem problem = workload::build_sparse_instance(stream);
  ASSERT_LT(problem.demand_cells(), problem.sites() * problem.objects());
  const std::vector<workload::Request> trace = build_test_trace(problem);

  ServeConfig config;
  EXPECT_THROW((void)serve::serve_trace(problem, trace, config),
               std::invalid_argument);
  config.retune_every = trace.size() / 2;
  EXPECT_THROW((void)serve::serve_trace(problem, trace, config),
               std::invalid_argument);
}

TEST(ServeTimed, RejectsPartialRowInstances) {
  workload::StreamConfig stream;
  stream.sites = 12;
  stream.objects = 200;
  stream.seed = 3;
  const core::Problem problem = workload::build_sparse_instance(stream);
  const std::vector<workload::Request> trace = build_test_trace(problem);

  ServeConfig config;
  config.duration_seconds = 0.01;
  EXPECT_THROW((void)serve::serve_timed(problem, trace, config),
               std::invalid_argument);
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
  config.duration_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)serve::serve_timed(problem, trace, config),
               std::invalid_argument);
  config.duration_seconds = 1.0;
  config.retune_interval_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)serve::serve_timed(problem, trace, config),
               std::invalid_argument);
  config.retune_interval_seconds = 0.0;
  config.algo = "no-such-solver";
  EXPECT_THROW((void)serve::serve_trace(problem, trace, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace drep
