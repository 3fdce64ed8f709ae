#pragma once
// Trace replay of the paper's replication policy (Section 2.1) over the
// discrete-event network:
//
//   read  — the origin site sends a zero-size request to its nearest
//           replicator SN_k(i), which ships the object back (o_k data
//           units); reads served by a local replica cost nothing;
//   write — the origin ships the updated object to the primary SP_k (o_k
//           units, free when the origin IS the primary), which then
//           broadcasts the new version to every other replicator (o_k
//           units each, excluding the writer).
//
// The accumulated data traffic of a full trace equals the analytic D of the
// scheme — the central model-validation property of this reproduction
// (tests/sim/access_replay_test.cpp).
//
// The replay speaks the shared sim::Envelope like every other DES protocol,
// in its own kinds (kReplayRead … kReplayMigration): the object rides as the
// bare payload, the exchange key as the seq and the writer as the sender.
//
// With a FaultPlan armed the replay degrades instead of diverging:
//   * a read routes to the nearest *live* replicator — when SN_k(i) is
//     inside a crash window it falls back to the cheapest live replica
//     (ties to the lowest site id; the primary is always a candidate),
//     counted as a degraded read; with no live replica at all the read
//     fails;
//   * reads, write shipments and update-broadcast legs are
//     sim::ReliableChannel exchanges (DESIGN.md Section 8,
//     "ReliableChannel"): retried until their ack, the primary re-acking a
//     replayed write shipment without re-broadcasting; a leg that exhausts
//     its retries leaves that replica stale (counted);
//   * read latency is then *measured* (request injection to response
//     delivery, retransmissions included) instead of the analytic round
//     trip — with all-zero fault rates the two coincide exactly. Write
//     latency stays the analytic visibility bound in both modes.
// All retry machinery is keyed on the plan's presence: a plan with zero
// rates produces byte-identical traffic to the faultless replay, which is
// what lets the replay-equals-analytic-D property extend to the fault path.

#include <optional>
#include <span>

#include "core/replication.hpp"
#include "sim/des.hpp"
#include "util/stats.hpp"
#include "workload/trace.hpp"

namespace drep::sim {

struct ReplayOptions {
  double latency_per_cost = 1.0;
  /// Requests are injected `inter_arrival` time units apart (0 = all at
  /// t=0, still causally ordered by the event queue).
  double inter_arrival = 0.0;
  /// Fault injection; nullopt = perfect network (no acks or retry timers,
  /// byte-identical traffic to the original replay).
  std::optional<FaultPlan> faults;
  /// Timeout/backoff parameters; only consulted when `faults` is set.
  RetryPolicy retry;
};

struct ReplayResult {
  TrafficStats traffic;
  /// Reads answered by a local replica (no messages at all).
  std::size_t local_reads = 0;
  std::size_t remote_reads = 0;
  std::size_t writes = 0;
  /// Simulated time at which the last event completed.
  SimTime duration = 0.0;
  /// Per-request response times, in simulated time units. A read completes
  /// when the object arrives back at the reader (0 for local reads); a
  /// write completes when the last replica has received the broadcast
  /// (update visibility, the conservative bound). These back the paper's
  /// motivation that traffic reduction "leads to the reduction of average
  /// response time".
  util::RunningStats read_latency;
  util::RunningStats write_latency;
  /// Fault-plan service degradation (all zero on a perfect network).
  RetryStats retry_stats;
  /// Reads served by a live replica other than SN_k(i).
  std::size_t degraded_reads = 0;
  /// Reads lost for good: reader crashed, no live replica, or retries
  /// exhausted.
  std::size_t failed_reads = 0;
  /// Writes lost for good: writer or primary crashed, or retries exhausted.
  std::size_t failed_writes = 0;
  /// Update-broadcast legs abandoned after retries — that replica serves a
  /// stale version until the next write reaches it.
  std::size_t stale_replica_updates = 0;
  /// Online-replay extras (replay_trace_online only; zero otherwise).
  std::size_t online_migrations = 0;
  std::size_t online_evictions = 0;
  /// Analytic NTC of the replica-creation shipments (size × C(source,
  /// site)); equals their delivered data traffic on a perfect network (a
  /// fault plan may drop a shipment, which still counts here).
  double migration_traffic = 0.0;
};

/// Replays `trace` against `scheme` under `options` (default: a perfect
/// network, unit latency factor, every request injected at t=0).
[[nodiscard]] ReplayResult replay_trace(
    const core::ReplicationScheme& scheme,
    std::span<const workload::Request> trace,
    const ReplayOptions& options = {});

// --- online replay --------------------------------------------------------

/// One mid-epoch scheme mutation decided by a ReplayPolicy. The policy has
/// already applied it to the scheme when on_request returns; the simulator
/// only realizes its network side effect (the replica-creation shipment).
struct SchemeChange {
  bool evict = false;
  SiteId site = 0;
  core::ObjectId object = 0;
  /// Replica the new copy is fetched from (replications only).
  SiteId source = 0;
  /// Data units shipped source -> site (replications only; o_k).
  double shipped_units = 0.0;
};

/// A mid-epoch replication policy driven by the replay loop. on_request is
/// called once per trace request, in trace order, *before* the request is
/// issued to the network — so a replica created on a remote read serves
/// that same read locally (the triggering fetch doubles as the replica
/// shipment), and a replica evicted on a write is excluded from that
/// write's update broadcast. The policy mutates `scheme` itself and returns
/// the changes it made (the span stays valid until the next call).
///
/// Decisions therefore depend only on (scheme, request sequence), never on
/// message timing: an online replay is bit-deterministic for a fixed trace
/// and policy, and the final scheme equals a standalone run of the same
/// policy over the same trace (the pipeline fuzzer pins this).
class ReplayPolicy {
 public:
  virtual ~ReplayPolicy() = default;
  [[nodiscard]] virtual std::span<const SchemeChange> on_request(
      std::uint64_t index, const workload::Request& request,
      core::ReplicationScheme& scheme) = 0;
};

/// Replays `trace` while `policy` replicates/evicts mid-epoch. `scheme` is
/// the caller's starting scheme and holds the final placement on return.
/// Replica-creation shipments are charged as data traffic at delivery
/// (migration_traffic tracks their NTC); evictions ship nothing.
[[nodiscard]] ReplayResult replay_trace_online(
    core::ReplicationScheme& scheme, std::span<const workload::Request> trace,
    const ReplayOptions& options, ReplayPolicy& policy);

}  // namespace drep::sim
