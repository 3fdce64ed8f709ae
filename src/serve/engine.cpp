#include "serve/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/audit.hpp"
#include "serve/rcu.hpp"
#include "serve/snapshot.hpp"

namespace drep::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;

/// Solve → freeze → (optionally) audit: the retune pipeline's construction
/// side, always off the reader hot path. threads = 1 keeps the solver
/// strictly serial — the serving workers own the cores, and a deterministic
/// schedule is part of the trace-mode contract.
std::unique_ptr<const SchemeSnapshot> solve_and_freeze(
    const core::Problem& problem, const ServeConfig& config,
    std::uint64_t generation) {
  DREP_SPAN("serve/retune");
  algo::SolverOptions options;
  options.common.seed = config.seed ^ (kSeedMix * generation);
  options.common.threads = 1;
  const algo::SolveResponse response =
      algo::solver_registry().at(config.algo).solve({problem, options});
  auto snapshot = std::make_unique<SchemeSnapshot>(
      SchemeSnapshot::freeze(response.result.scheme, generation));
  if (config.audit) {
    DREP_SPAN("serve/audit");
    audit::enforce(
        audit::check_snapshot_coherence(*snapshot, response.result.scheme),
        "serve/freeze generation " + std::to_string(generation));
  }
  return snapshot;
}

/// One entry of trace mode's outcome log. 16 bytes with no padding, so
/// the whole log hashes as one array.
struct LoggedOutcome {
  std::uint32_t generation;
  core::SiteId served_by;
  double cost;
};
static_assert(sizeof(LoggedOutcome) == 16);

/// The worker routine of both modes: serves trace[lo, hi) in batches of
/// `batch`, pinning once per batch, and hands each request's index, the
/// pinned generation and the outcome to `record`.
template <typename Record>
void serve_batches(RcuDomain::Reader reader,
                   std::span<const workload::Request> trace, std::size_t lo,
                   std::size_t hi, std::size_t batch, Record&& record) {
  while (lo < hi) {
    const std::size_t end = std::min(hi, lo + batch);
    const SchemeSnapshot* snapshot = reader.pin();
    const auto generation =
        static_cast<std::uint32_t>(snapshot->generation());
    for (; lo < end; ++lo) {
      const workload::Request& request = trace[lo];
      record(lo, generation,
             snapshot->serve(request.site, request.object, request.is_write));
    }
    reader.unpin();
  }
}

/// Worker w's contiguous share of [lo, hi) split `workers` ways; the last
/// shares may be empty.
std::pair<std::size_t, std::size_t> share(std::size_t lo, std::size_t hi,
                                          std::size_t w, std::size_t workers) {
  const std::size_t chunk = (hi - lo + workers - 1) / workers;
  const std::size_t begin = std::min(hi, lo + w * chunk);
  return {begin, std::min(hi, begin + chunk)};
}

/// Runs body(w) for every worker w, each on its own thread, and joins;
/// a single worker runs on the calling thread.
template <typename Body>
void run_workers(std::size_t workers, const Body& body) {
  if (workers == 1) {
    body(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back([&body, w] { body(w); });
  for (std::thread& thread : threads) thread.join();
}

std::vector<RcuDomain::Reader> make_readers(RcuDomain& domain,
                                            std::size_t workers) {
  std::vector<RcuDomain::Reader> readers;
  readers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) readers.push_back(domain.reader());
  return readers;
}

// Sampled latency: one log2-ns histogram per worker, merged at the end.
// Bucket b holds per-request times with bit_width(ns) == b, so the
// reported percentile is the bucket's upper edge 2^b ns.
constexpr std::size_t kLatencyBuckets = 64;
using LatencyHistogram = std::array<std::uint64_t, kLatencyBuckets>;

std::size_t latency_bucket(std::uint64_t ns) noexcept {
  return std::min<std::size_t>(kLatencyBuckets - 1, std::bit_width(ns));
}

double percentile_us(const LatencyHistogram& merged, double quantile) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : merged) total += count;
  if (total == 0) return 0.0;
  const double target = quantile * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    seen += merged[b];
    if (static_cast<double>(seen) >= target)
      return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b)) / 1000.0;
  }
  return std::ldexp(1.0, static_cast<int>(kLatencyBuckets)) / 1000.0;
}

void finish_report(ServeReport& report, double seconds,
                   const RcuDomain& domain) {
  report.seconds = seconds;
  report.requests_per_second =
      seconds > 0.0 ? static_cast<double>(report.requests) / seconds : 0.0;
  report.generations = report.retunes + 1;
  report.reclaimed = domain.reclaimed();
  report.retired_pending = domain.retired_pending();
  DREP_COUNT("drep_serve_requests_total", report.requests);
  DREP_COUNT("drep_serve_retunes_total", report.retunes);
  DREP_GAUGE_SET("drep_serve_requests_per_second", report.requests_per_second);
  DREP_GAUGE_SET("drep_serve_generation", report.generations - 1);
}

}  // namespace

void ServeConfig::validate() const {
  if (workers == 0 || workers > RcuDomain::kMaxReaders)
    throw std::invalid_argument(
        "ServeConfig: workers must be in [1, " +
        std::to_string(RcuDomain::kMaxReaders) + "]");
  if (batch == 0)
    throw std::invalid_argument("ServeConfig: batch must be >= 1");
  if (algo.empty()) throw std::invalid_argument("ServeConfig: empty algo");
  if (!std::isfinite(duration_seconds) || duration_seconds < 0.0)
    throw std::invalid_argument(
        "ServeConfig: duration_seconds must be finite and >= 0");
  if (!std::isfinite(retune_interval_seconds) || retune_interval_seconds < 0.0)
    throw std::invalid_argument(
        "ServeConfig: retune_interval_seconds must be finite and >= 0");
}

ServeReport serve_trace(const core::Problem& problem,
                        std::span<const workload::Request> trace,
                        const ServeConfig& config) {
  config.validate();
  const std::size_t total = trace.size();
  const std::size_t per_generation =
      config.retune_every == 0 ? std::max<std::size_t>(total, 1)
                               : config.retune_every;
  const std::size_t segments =
      std::max<std::size_t>(1, (total + per_generation - 1) / per_generation);

  // The outcome log: every worker writes its own disjoint trace indices, so
  // after the join the log is a pure function of (trace, generations) —
  // hashed below, it is the cross-worker determinism fingerprint.
  std::vector<LoggedOutcome> log(total);

  RcuDomain domain(solve_and_freeze(problem, config, 0));
  const std::vector<RcuDomain::Reader> readers =
      make_readers(domain, config.workers);

  // The retunes' input: the counts of every request served so far. A
  // slice's counts are a pure function of the slice, so counting it from
  // the trace after the join gives the same exact integers at every worker
  // count.
  core::Problem observed = problem;
  observed.clear_demand();

  const auto start = Clock::now();
  for (std::size_t segment = 0; segment < segments; ++segment) {
    const std::size_t segment_lo = segment * per_generation;
    const std::size_t segment_hi = std::min(total, segment_lo + per_generation);
    run_workers(config.workers, [&](std::size_t w) {
      DREP_SPAN("serve/worker");
      const auto [lo, hi] = share(segment_lo, segment_hi, w, config.workers);
      serve_batches(readers[w], trace, lo, hi, config.batch,
                    [&](std::size_t j, std::uint32_t generation,
                        const Outcome& outcome) {
                      log[j] = {generation, outcome.served_by, outcome.cost};
                    });
    });

    // Retune pinned to trace position segment_hi: re-solve on everything
    // served so far and publish before the next slice begins, so slice
    // g + 1 is served by generation g + 1 at every worker count.
    if (segment + 1 < segments) {
      workload::count_requests(
          trace.subspan(segment_lo, segment_hi - segment_lo), observed);
      domain.publish(solve_and_freeze(observed, config, segment + 1));
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  domain.reclaim();

  ServeReport report;
  report.requests = total;
  report.retunes = segments - 1;
  report.outcome_hash = word_hash(log.data(), log.size() * sizeof(log[0]));
  for (const LoggedOutcome& entry : log) report.served_cost += entry.cost;
  finish_report(report, seconds, domain);
  return report;
}

ServeReport serve_timed(const core::Problem& problem,
                        std::span<const workload::Request> trace,
                        const ServeConfig& config) {
  config.validate();
  const std::size_t workers = config.workers;

  RcuDomain domain(solve_and_freeze(problem, config, 0));
  const std::vector<RcuDomain::Reader> readers =
      make_readers(domain, workers);

  struct Tally {
    LatencyHistogram latency{};
    std::uint64_t requests = 0;
    double cost = 0.0;
  };
  std::vector<Tally> tallies(workers);

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.duration_seconds));

  // Worker w cycles over its share of the trace until the deadline. The
  // first request of each batch is timed alone — pin, serve, unpin — and
  // the sample's end time is the deadline check.
  auto worker_main = [&](std::size_t w) {
    DREP_SPAN("serve/worker");
    const auto [lo, hi] = share(0, trace.size(), w, workers);
    if (lo == hi) return;
    Tally& tally = tallies[w];
    std::uint64_t count = 0;
    double cost = 0.0;
    const auto add = [&](std::size_t, std::uint32_t, const Outcome& outcome) {
      ++count;
      cost += outcome.cost;
    };
    for (std::size_t j = lo;;) {
      const auto sample_start = Clock::now();
      serve_batches(readers[w], trace, j, j + 1, 1, add);
      const auto now = Clock::now();
      const auto sample_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                               sample_start)
              .count();
      ++tally.latency[latency_bucket(static_cast<std::uint64_t>(sample_ns))];
      if (now >= deadline) break;
      const std::size_t end = std::min(hi, j + config.batch);
      serve_batches(readers[w], trace, j + 1, end, config.batch, add);
      j = end == hi ? lo : end;
    }
    tally.requests = count;
    tally.cost = cost;
  };

  // Clock-driven retunes re-solve the instance being served: the workers
  // replay its own demand, so that is what they observe. A failed retune
  // (an audit violation, say) is rethrown after the join.
  std::uint64_t retunes = 0;
  std::exception_ptr retune_error;
  std::thread retuner;
  if (config.retune_interval_seconds > 0.0) {
    retuner = std::thread([&] {
      DREP_SPAN("serve/retuner");
      const auto interval =
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(config.retune_interval_seconds));
      try {
        for (;;) {
          const auto now = Clock::now();
          if (now >= deadline) break;
          std::this_thread::sleep_until(std::min(now + interval, deadline));
          if (Clock::now() >= deadline) break;
          domain.publish(solve_and_freeze(problem, config, retunes + 1));
          ++retunes;
        }
      } catch (...) {
        retune_error = std::current_exception();
      }
    });
  }

  run_workers(workers, worker_main);
  if (retuner.joinable()) retuner.join();
  if (retune_error) std::rethrow_exception(retune_error);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  domain.reclaim();

  ServeReport report;
  LatencyHistogram merged{};
  for (const Tally& tally : tallies) {
    report.requests += tally.requests;
    report.served_cost += tally.cost;
    for (std::size_t b = 0; b < kLatencyBuckets; ++b)
      merged[b] += tally.latency[b];
  }
  report.retunes = retunes;
  report.p50_us = percentile_us(merged, 0.50);
  report.p99_us = percentile_us(merged, 0.99);
  report.p999_us = percentile_us(merged, 0.999);
  finish_report(report, seconds, domain);
  return report;
}

}  // namespace drep::serve
