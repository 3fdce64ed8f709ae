#pragma once
// Shared machinery of the pipeline benchmark: run configuration and the
// metric sink, the correctness gate, benchmark-side layer spans with self
// times, per-run deltas of the program's own obs counters and spans, and
// the open-loop latency probe.
//
// Everything here sits outside src/: the benchmark drives the library only
// through its public headers and reads the process-global obs registry the
// library already writes.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "audit/invariants.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/rcu.hpp"
#include "sim/des.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload/trace.hpp"

namespace pipebench {

using Clock = std::chrono::steady_clock;

/// Median of a non-empty sample (interpolated for even counts).
[[nodiscard]] inline double median(std::span<const double> values) {
  return drep::util::quantile(values, 0.5);
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Heap bytes in use (glibc allocator statistics, mmapped blocks
/// included), in MiB.
[[nodiscard]] double heap_in_use_mb();

/// MiB of heap that the object `make()` returns holds: how big a frozen
/// snapshot is, whatever its layout.
template <typename Make>
[[nodiscard]] double held_mb(Make&& make) {
  const double before = heap_in_use_mb();
  [[maybe_unused]] const auto held = make();
  return heap_in_use_mb() - before;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall-clock budget of the measured phase (set-up excluded).
  double seconds = 10.0;
  /// Traced run: report per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

/// Named metrics with units, in the order they were reported.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Adds to the run's operation count (requests routed or replayed,
  /// solves, publishes).
  void add_attempted(std::uint64_t operations) { attempted_ += operations; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] drep::obs::Json metrics_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
};

/// The correctness gate. Every check counts; a failed one fails the run.
/// Checks run outside the timed window: section() measures the seconds
/// spent in gate work so the workloads can subtract them from pipeline
/// time. Thread-safe (the serve-live publisher thread checks snapshots).
class Gate {
 public:
  void check(bool ok, const std::string& what);
  void expect_clean(const drep::audit::Violations& violations,
                    const std::string& where);
  /// DES message conservation: sent == delivered + dropped (nothing may
  /// stay in flight after a drained run).
  void expect_conserved(const drep::sim::TrafficStats& traffic,
                        const std::string& where);
  /// Snapshot integrity (audit::check_snapshot_coherence without a scheme):
  /// array shapes, and the stamped checksum equals a recomputation.
  void expect_intact(const drep::serve::SchemeSnapshot& snapshot,
                     const std::string& where);

  /// Runs `body` as gate work and returns its duration in seconds.
  template <typename Body>
  double section(Body&& body) {
    const drep::util::Stopwatch watch;
    body();
    const double seconds = watch.seconds();
    add_seconds(seconds);
    return seconds;
  }
  /// Gate seconds accumulated since the last take_seconds(), then zeroed.
  [[nodiscard]] double take_seconds();

  [[nodiscard]] std::size_t checks() const;
  [[nodiscard]] std::size_t failures() const;
  [[nodiscard]] drep::obs::Json messages_json() const;

 private:
  void add_seconds(double seconds);

  mutable std::mutex mutex_;
  std::size_t checks_ = 0;
  std::size_t failures_ = 0;
  std::vector<std::string> messages_;
  double seconds_ = 0.0;
};

/// Benchmark-side layer spans, opened around each call into a layer from
/// the benchmark's main thread. A span's self time is its duration minus
/// the durations of the spans nested in it. Disabled tracers record
/// nothing, which is what untraced iterations use.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  void enable(bool on) { enabled_ = on; }
  /// Removes `seconds` of gate work another thread did while the innermost
  /// open span waited for it, so self times add up to pipeline time.
  void exclude(double seconds) {
    if (enabled_ && !stack_.empty()) stack_.back().child_seconds += seconds;
  }
  /// Moves `seconds` of self time from layer `from` to layer `to`: how a
  /// program span nested in a benchmark span (AGRA inside a retune round)
  /// becomes a layer of its own.
  void split(const std::string& from, const std::string& to, double seconds) {
    if (!enabled_) return;
    self_[from] -= seconds;
    self_[to] += seconds;
  }
  [[nodiscard]] Scope span(const char* layer) {
    return Scope(enabled_ ? this : nullptr, layer);
  }
  /// Self seconds per layer since the last reset().
  [[nodiscard]] const std::map<std::string, double>& self_seconds() const {
    return self_;
  }
  void reset() { self_.clear(); }

 private:
  struct Frame {
    const char* layer;
    drep::util::Stopwatch watch;
    double child_seconds;
  };
  std::vector<Frame> stack_;
  std::map<std::string, double> self_;
  bool enabled_ = false;
};

/// Drives a workload's measured phase: iterations of the whole pipeline
/// until the run's time budget is spent (at least `min_iterations`). An
/// untraced run traces nothing. A traced run alternates untraced and
/// traced iterations, so it can price tracing itself; per-layer values
/// come from its traced iterations only.
class Iterations {
 public:
  Iterations(const RunConfig& config, std::size_t min_iterations);

  /// Starts the next iteration; false once the budget is spent.
  [[nodiscard]] bool next();
  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }

  /// Records a per-layer value of the current iteration (kept only when it
  /// is traced); report_layers() gives the median over traced iterations.
  void layer(const std::string& name, double value, const std::string& unit);
  /// Records a per-layer value measured once for the whole run.
  void run_layer(const std::string& name, double value,
                 const std::string& unit);
  /// Ends the iteration with its pipeline seconds (gate work excluded).
  void finish(double pipeline_seconds);

  /// Mean pipeline seconds of the untraced iterations. A mean, not a
  /// median: on a shared host whole stretches of iterations run slow, and
  /// the mean weighs them by their share instead of jumping between the
  /// fast and the slow mode.
  [[nodiscard]] double pipeline_seconds() const;
  /// Writes the per-layer metrics: recorded values, each layer's self time
  /// per traced iteration plus the `other` remainder (together they sum to
  /// trace.pipeline_s), and obs.trace_overhead_pct.
  void report_layers(Report& report) const;

 private:
  RunConfig config_;
  std::size_t min_iterations_;
  drep::util::Stopwatch watch_;
  std::size_t index_ = 0;
  bool started_ = false;
  bool traced_ = false;
  Tracer tracer_;
  std::vector<double> untraced_seconds_;
  std::vector<double> traced_seconds_;
  std::map<std::string, double> self_totals_;
  std::map<std::string, std::pair<std::vector<double>, std::string>> layers_;
};

/// One iteration's worth of the program's own obs output: counters from
/// the process-global registry and the span tree, both reset when the
/// iteration begins so nothing accumulates across iterations.
class ObsDelta {
 public:
  /// Zeroes the registry and drops recorded spans. No solver, replay or
  /// serving thread may be active.
  static void begin();
  /// Snapshots both.
  static ObsDelta end();

  /// Folded counter value; 0 when the counter was never registered.
  [[nodiscard]] double counter(std::string_view name) const;
  /// Total seconds of spans labelled `label`, outermost occurrences only.
  [[nodiscard]] double span_seconds(std::string_view label) const;

 private:
  drep::obs::MetricsSnapshot metrics_;
  drep::obs::SpanRegistry::SpanStats spans_;
};

/// Log-linear latency histogram: exact below 32 ns, then 32 sub-buckets
/// per power of two (about 3% resolution), against the log2 buckets of
/// ServeReport.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) noexcept;
  void merge(const LatencyHistogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  /// Quantile q (0 < q <= 1), interpolated inside its bucket; 0 when
  /// empty.
  [[nodiscard]] double quantile_ns(double q) const noexcept;

 private:
  static constexpr int kSubBits = 5;
  static constexpr std::size_t kBuckets = 64u << kSubBits;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Open-loop probe result.
struct ProbeResult {
  /// Per-request time from its scheduled send time to unpin.
  LatencyHistogram latency;
  /// How late each request was sent against its schedule (generator lag).
  LatencyHistogram lag;
  std::uint64_t requests = 0;
  /// Σ outcome cost, so the lookups are observable work.
  double cost = 0.0;
};

/// Open loop at a fixed offered rate: request j is due at start + j/rate
/// and is sent then whatever happened to earlier ones, so a stall delays
/// every request behind it and shows in their latency. Each request pins,
/// `serve_one(snapshot, j)` serves it, and it unpins. Runs until at least
/// `min_requests` were sent and `keep_running` (when given) reads false.
template <typename ServeOne>
[[nodiscard]] ProbeResult open_loop_probe(
    drep::serve::RcuDomain::Reader reader, ServeOne&& serve_one,
    double rate_per_second, std::size_t min_requests,
    const std::atomic<bool>* keep_running) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  ProbeResult result;
  const double period_ns = 1e9 / rate_per_second;
  const auto start = Clock::now();
  for (std::size_t j = 0;; ++j) {
    if (j >= min_requests &&
        (keep_running == nullptr ||
         !keep_running->load(std::memory_order_acquire)))
      break;
    const auto due = start + nanoseconds(static_cast<std::int64_t>(
                                 static_cast<double>(j) * period_ns));
    auto now = Clock::now();
    while (now < due) now = Clock::now();
    const drep::serve::SchemeSnapshot* snapshot = reader.pin();
    const drep::serve::Outcome outcome = serve_one(*snapshot, j);
    reader.unpin();
    const auto done = Clock::now();
    result.cost += outcome.cost;
    result.latency.record(
        static_cast<std::uint64_t>(duration_cast<nanoseconds>(done - due).count()));
    result.lag.record(
        static_cast<std::uint64_t>(duration_cast<nanoseconds>(now - due).count()));
    ++result.requests;
  }
  return result;
}

/// The probe's serve_one over a dense trace, cycling through it.
[[nodiscard]] inline auto serve_from(
    std::span<const drep::workload::Request> trace) {
  return [trace](const drep::serve::SchemeSnapshot& snapshot, std::size_t j) {
    const drep::workload::Request& request = trace[j % trace.size()];
    return snapshot.serve(request.site, request.object, request.is_write);
  };
}

/// Closed-loop routing pass on the calling thread: serves `trace` `passes`
/// times through the domain, one pin per batch of 256 requests as the
/// serving engine does. Returns the seconds taken; adds Σ cost to `cost`.
[[nodiscard]] double route_pass(drep::serve::RcuDomain::Reader reader,
                                std::span<const drep::workload::Request> trace,
                                std::size_t passes, double& cost);

/// Probe settings shared by every workload: one probe thread offering
/// 1M requests/s, well below what one thread can serve.
inline constexpr double kProbeRate = 1e6;

/// Writes the end-to-end route metrics of a run's merged probe histogram:
/// the median and p90. The p99 is a per-layer metric: on a shared VM it
/// falls where host preemption (timer exits, stolen time, millisecond
/// descheduling) delays about 1% of an open-loop schedule, so it swings
/// several-fold between runs of identical code.
void report_route(Report& report, const LatencyHistogram& latency);
/// Writes serve.route_p99_ns, serve.gen_lag_us (p99 generator lag) and
/// serve.probe_samples.
void record_probe_layers(Iterations& iterations, const ProbeResult& probe);

// The workloads (one source file each; the comment atop each says why it
// exists). Each fills the end-to-end metrics, or in a traced run the
// per-layer ones, and runs its correctness gate.
void run_paper_adapt(const RunConfig& config, Report& report, Gate& gate);
void run_serve_live(const RunConfig& config, Report& report, Gate& gate);

}  // namespace pipebench
