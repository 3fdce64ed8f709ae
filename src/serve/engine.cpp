#include "serve/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/audit.hpp"
#include "serve/rcu.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace drep::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;

/// FNV-1a 64-bit over raw bytes, chainable via `seed`: the outcome-log
/// hash, whose bench/serve value BENCH_serve.json pins.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 1469598103934665603ULL) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

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

// Batch-sampled latency: one log2-ns histogram per worker, merged at the
// end. Bucket b holds per-request times with bit_width(ns) == b, so the
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

void flush_metrics(const ServeReport& report) {
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
  if (load.ring_size == 0)
    throw std::invalid_argument("ServeConfig: ring_size must be >= 1");
  if (!(0.0 <= load.write_fraction && load.write_fraction <= 1.0))
    throw std::invalid_argument(
        "ServeConfig: write_fraction must be in [0, 1]");
}

ServeReport serve_trace(const core::Problem& problem,
                        std::span<const workload::Request> trace,
                        const ServeConfig& config) {
  config.validate();
  const std::size_t sites = problem.sites();
  const std::size_t objects = problem.objects();
  const std::size_t cells = sites * objects;
  const std::size_t total = trace.size();
  const std::size_t workers = config.workers;
  const std::size_t per_generation =
      config.retune_every == 0 ? std::max<std::size_t>(total, 1)
                               : config.retune_every;
  const std::size_t segments =
      std::max<std::size_t>(1, (total + per_generation - 1) / per_generation);

  // The outcome log: every worker writes its own disjoint trace indices, so
  // after the join the log is a pure function of (trace, generations) —
  // hashed serially below, it is the cross-worker determinism fingerprint.
  std::vector<std::uint32_t> log_generation(total);
  std::vector<core::SiteId> log_site(total);
  std::vector<double> log_cost(total);

  RcuDomain domain(solve_and_freeze(problem, config, 0));
  std::vector<RcuDomain::Reader> readers;
  readers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) readers.push_back(domain.reader());

  // Observed request counts feed the retunes. Workers accumulate locally and
  // the totals are folded after each segment's join: counts are
  // integer-valued doubles, so the fold is order-independent and the retune
  // input does not depend on worker interleaving.
  std::vector<std::vector<double>> local_reads(workers);
  std::vector<std::vector<double>> local_writes(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    local_reads[w].assign(cells, 0.0);
    local_writes[w].assign(cells, 0.0);
  }
  std::vector<double> observed_reads(cells, 0.0);
  std::vector<double> observed_writes(cells, 0.0);
  core::Problem retune_problem = problem;

  const auto start = Clock::now();
  for (std::size_t segment = 0; segment < segments; ++segment) {
    const std::size_t segment_lo = segment * per_generation;
    const std::size_t segment_hi = std::min(total, segment_lo + per_generation);
    const std::size_t length = segment_hi - segment_lo;
    const std::size_t chunk = (length + workers - 1) / workers;

    auto serve_chunk = [&](std::size_t w, std::size_t lo, std::size_t hi) {
      DREP_SPAN("serve/worker");
      RcuDomain::Reader reader = readers[w];
      std::vector<double>& reads = local_reads[w];
      std::vector<double>& writes = local_writes[w];
      std::size_t j = lo;
      while (j < hi) {
        const std::size_t batch_end = std::min(hi, j + config.batch);
        const SchemeSnapshot* snapshot = reader.pin();
        const auto generation =
            static_cast<std::uint32_t>(snapshot->generation());
        for (; j < batch_end; ++j) {
          const workload::Request& request = trace[j];
          const Outcome outcome =
              snapshot->serve(request.site, request.object, request.is_write);
          log_generation[j] = generation;
          log_site[j] = outcome.served_by;
          log_cost[j] = outcome.cost;
          const std::size_t cell =
              static_cast<std::size_t>(request.object) * sites + request.site;
          (request.is_write ? writes : reads)[cell] += 1.0;
        }
        reader.unpin();
      }
    };

    if (workers == 1) {
      if (length > 0) serve_chunk(0, segment_lo, segment_hi);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t lo = segment_lo + w * chunk;
        const std::size_t hi = std::min(segment_hi, lo + chunk);
        if (lo >= hi) break;
        threads.emplace_back(serve_chunk, w, lo, hi);
      }
      for (std::thread& thread : threads) thread.join();
    }

    // Retune pinned to trace position segment_hi: re-solve on everything
    // observed so far and publish before the next slice begins, so slice
    // g + 1 is served by generation g + 1 at every worker count.
    if (segment + 1 < segments) {
      for (std::size_t w = 0; w < workers; ++w) {
        for (std::size_t c = 0; c < cells; ++c) {
          observed_reads[c] += local_reads[w][c];
          observed_writes[c] += local_writes[w][c];
          local_reads[w][c] = 0.0;
          local_writes[w][c] = 0.0;
        }
      }
      // Object-major, the Problem's row order; each object's cells are
      // still set in ascending site order, so its totals accrue as before.
      for (core::ObjectId k = 0; k < objects; ++k) {
        for (core::SiteId i = 0; i < sites; ++i) {
          const std::size_t cell = static_cast<std::size_t>(k) * sites + i;
          retune_problem.set_reads(i, k, observed_reads[cell]);
          retune_problem.set_writes(i, k, observed_writes[cell]);
        }
      }
      domain.publish(solve_and_freeze(retune_problem, config, segment + 1));
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  domain.reclaim();

  ServeReport report;
  report.requests = total;
  report.seconds = seconds;
  report.requests_per_second =
      seconds > 0.0 ? static_cast<double>(total) / seconds : 0.0;
  report.generations = segments;
  report.retunes = segments - 1;
  std::uint64_t hash = fnv1a(&total, sizeof(total));
  for (std::size_t j = 0; j < total; ++j) {
    hash = fnv1a(&log_generation[j], sizeof(log_generation[j]), hash);
    hash = fnv1a(&log_site[j], sizeof(log_site[j]), hash);
    hash = fnv1a(&log_cost[j], sizeof(log_cost[j]), hash);
    report.served_cost += log_cost[j];
  }
  report.outcome_hash = hash;
  report.reclaimed = domain.reclaimed();
  report.retired_pending = domain.retired_pending();
  flush_metrics(report);
  return report;
}

ServeReport serve_timed(const core::Problem& problem,
                        const ServeConfig& config) {
  config.validate();
  const std::size_t sites = problem.sites();
  const std::size_t objects = problem.objects();
  const std::size_t cells = sites * objects;
  const std::size_t workers = config.workers;

  RcuDomain domain(solve_and_freeze(problem, config, 0));
  std::vector<RcuDomain::Reader> readers;
  readers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) readers.push_back(domain.reader());

  // Observed counts the retune thread samples mid-flight: per-worker
  // matrices of relaxed atomics, so workers never contend with each other
  // and the retuner reads whatever has landed by sampling time.
  struct ObservedCounts {
    explicit ObservedCounts(std::size_t size) : reads(size), writes(size) {}
    std::vector<std::atomic<std::uint32_t>> reads;
    std::vector<std::atomic<std::uint32_t>> writes;
  };
  std::vector<std::unique_ptr<ObservedCounts>> observed;
  observed.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    observed.push_back(std::make_unique<ObservedCounts>(cells));

  const util::Rng base(config.seed);
  std::vector<std::vector<workload::Request>> rings;
  rings.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    rings.push_back(
        make_request_ring(sites, objects, config.load, base.fork(1000 + w)));

  std::vector<LatencyHistogram> latency(workers);
  for (LatencyHistogram& histogram : latency) histogram.fill(0);
  std::vector<std::uint64_t> served(workers, 0);
  std::vector<double> cost_sum(workers, 0.0);

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.duration_seconds));

  auto worker_main = [&](std::size_t w) {
    DREP_SPAN("serve/worker");
    RcuDomain::Reader reader = readers[w];
    const std::vector<workload::Request>& ring = rings[w];
    const std::size_t mask = ring.size() - 1;
    ObservedCounts& counts = *observed[w];
    LatencyHistogram& histogram = latency[w];
    std::uint64_t count = 0;
    double cost = 0.0;
    std::size_t position = 0;
    auto now = Clock::now();
    while (now < deadline) {
      const auto batch_start = now;
      const SchemeSnapshot* snapshot = reader.pin();
      for (std::size_t b = 0; b < config.batch; ++b) {
        const workload::Request& request = ring[position++ & mask];
        const Outcome outcome =
            snapshot->serve(request.site, request.object, request.is_write);
        cost += outcome.cost;
        const std::size_t cell =
            static_cast<std::size_t>(request.object) * sites + request.site;
        (request.is_write ? counts.writes : counts.reads)[cell].fetch_add(
            1, std::memory_order_relaxed);
      }
      reader.unpin();
      now = Clock::now();
      const auto elapsed_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                               batch_start)
              .count();
      const std::uint64_t per_request =
          static_cast<std::uint64_t>(elapsed_ns) / config.batch;
      histogram[latency_bucket(per_request)] += config.batch;
      count += config.batch;
    }
    served[w] = count;
    cost_sum[w] = cost;
  };

  std::atomic<std::uint64_t> retunes{0};
  std::thread retuner;
  if (config.retune_interval_seconds > 0.0) {
    retuner = std::thread([&] {
      DREP_SPAN("serve/retuner");
      core::Problem retune_problem = problem;
      const auto interval =
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(config.retune_interval_seconds));
      std::uint64_t generation = 0;
      for (;;) {
        const auto now = Clock::now();
        if (now >= deadline) break;
        std::this_thread::sleep_until(std::min(now + interval, deadline));
        if (Clock::now() >= deadline) break;
        for (core::ObjectId k = 0; k < objects; ++k) {
          for (core::SiteId i = 0; i < sites; ++i) {
            const std::size_t cell = static_cast<std::size_t>(k) * sites + i;
            double reads = 0.0;
            double writes = 0.0;
            for (std::size_t w = 0; w < workers; ++w) {
              reads += observed[w]->reads[cell].load(std::memory_order_relaxed);
              writes +=
                  observed[w]->writes[cell].load(std::memory_order_relaxed);
            }
            retune_problem.set_reads(i, k, reads);
            retune_problem.set_writes(i, k, writes);
          }
        }
        ++generation;
        domain.publish(solve_and_freeze(retune_problem, config, generation));
        retunes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back(worker_main, w);
  for (std::thread& thread : threads) thread.join();
  if (retuner.joinable()) retuner.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  domain.reclaim();

  LatencyHistogram merged;
  merged.fill(0);
  for (std::size_t w = 0; w < workers; ++w)
    for (std::size_t b = 0; b < kLatencyBuckets; ++b)
      merged[b] += latency[w][b];

  ServeReport report;
  for (std::size_t w = 0; w < workers; ++w) {
    report.requests += served[w];
    report.served_cost += cost_sum[w];
  }
  report.seconds = seconds;
  report.requests_per_second =
      seconds > 0.0 ? static_cast<double>(report.requests) / seconds : 0.0;
  report.retunes = retunes.load(std::memory_order_relaxed);
  report.generations = report.retunes + 1;
  report.p50_us = percentile_us(merged, 0.50);
  report.p99_us = percentile_us(merged, 0.99);
  report.p999_us = percentile_us(merged, 0.999);
  report.reclaimed = domain.reclaimed();
  report.retired_pending = domain.retired_pending();
  flush_metrics(report);
  return report;
}

}  // namespace drep::serve
