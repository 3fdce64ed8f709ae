#pragma once
// High-throughput serving front-end (DESIGN.md Section 14).
//
// Routes simulated requests against an immutable SchemeSnapshot published
// through an RCU domain, while a retune pipeline constructs the next
// snapshot version off to the side (solver re-run, frozen, optionally
// audited) and publishes it atomically. Readers never block. Both modes
// replay a workload::Request trace through one worker routine: pin →
// flat-array lookups → record → unpin, with one pin per request *batch*
// (timed mode pins each batch's sampled first request on its own).
//
// Two modes:
//   * serve_trace — replays the trace once with retunes PINNED to trace
//     positions (every config.retune_every requests, with a barrier: a
//     generation-g snapshot serves exactly trace slice g, and the retune
//     after it re-solves on the counts of every request served so far,
//     counted from the trace). Each request's outcome is a pure function of
//     (request, generation), so the outcome log — and its word_hash — is
//     bit-identical for every worker count. This is the determinism harness
//     CI pins at workers = 1/2/4.
//   * serve_timed — replays the trace on the clock: worker w cycles over
//     its own contiguous slice until the deadline, while a retune thread
//     re-solves the instance and publishes every retune_interval_seconds.
//     Measures aggregate throughput and per-request latency percentiles
//     (p50/p99/p999) from the first request of each batch, timed alone.
//     Outcomes here depend on publish timing by design; determinism is the
//     trace mode's contract.
//
// Both modes serve full-row instances only (std::invalid_argument on a
// partial row): SchemeSnapshot::serve indexes cell k·M + i.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/problem.hpp"
#include "workload/trace.hpp"

namespace drep::serve {

struct ServeConfig {
  /// Serving worker threads (1..RcuDomain::kMaxReaders).
  std::size_t workers = 1;
  /// Seed of the initial solve; generation g's retune solves with
  /// seed ^ (0x9e3779b97f4a7c15 · g).
  std::uint64_t seed = 1;
  /// Solver-registry name used for the initial scheme and every retune.
  std::string algo = "sra";
  /// Requests served per snapshot pin. Larger batches amortize the pin
  /// protocol; smaller ones pick up fresh snapshots sooner.
  std::size_t batch = 256;
  /// Run audit::check_snapshot_coherence on every snapshot before it is
  /// published (throws audit::AuditFailure on violation).
  bool audit = false;

  /// serve_trace: requests per generation (a retune+publish is pinned after
  /// every retune_every requests); 0 = a single generation, no retunes.
  std::size_t retune_every = 0;

  /// serve_timed: wall-clock serving window.
  double duration_seconds = 1.0;
  /// serve_timed: retune thread cadence; 0 = no concurrent retunes.
  double retune_interval_seconds = 0.0;

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

struct ServeReport {
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double requests_per_second = 0.0;
  /// Snapshot versions served (initial + retunes).
  std::uint64_t generations = 1;
  std::uint64_t retunes = 0;
  /// serve_trace: serve::word_hash of the outcome log, one 16-byte
  /// (generation, served_by, cost) entry per request in request order —
  /// the cross-worker determinism fingerprint.
  std::uint64_t outcome_hash = 0;
  /// Σ outcome cost. In trace mode, summed serially in request order, so it
  /// is bit-identical across worker counts too.
  double served_cost = 0.0;
  /// serve_timed: per-request latency percentiles of the first request of
  /// every batch, timed alone from pin to unpin (microseconds; bucket upper
  /// edges of a log2-ns histogram).
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  /// RCU accounting at the end of the run.
  std::uint64_t reclaimed = 0;
  std::uint64_t retired_pending = 0;
};

/// Deterministic trace replay (see mode description above). The trace's
/// (site, object) pairs must be in range for `problem`.
[[nodiscard]] ServeReport serve_trace(const core::Problem& problem,
                                      std::span<const workload::Request> trace,
                                      const ServeConfig& config);

/// Wall-clock replay of `trace` with concurrent retunes of `problem` (see
/// mode description above). The trace's (site, object) pairs must be in
/// range for `problem`; an empty trace serves no requests.
[[nodiscard]] ServeReport serve_timed(const core::Problem& problem,
                                      std::span<const workload::Request> trace,
                                      const ServeConfig& config);

}  // namespace drep::serve
