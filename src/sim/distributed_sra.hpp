#pragma once
// The distributed version of SRA (paper Section 3): the candidate lists
// L(i) live at their sites, the active-site list LS at a network leader.
// The leader picks sites round-robin via a token; the visited site computes
// its best local benefit, fetches the chosen object from its nearest
// replicator (a real data transfer), reliably broadcasts the replication to
// every other site (which updates its SN record and acks), and returns the
// token. Runs over the discrete-event network, so message counts, data
// traffic, and completion time are measured rather than asserted.
//
// With a FaultPlan armed the protocol survives an imperfect network. Every
// exchange (token grant, replica announce, rejoin) runs through the node's
// sim::ReliableChannel and every object fetch through its sim::FetchLeg
// (DESIGN.md Section 8, "ReliableChannel" and "Fetch leg"), so pure message
// loss only costs retransmissions — the resulting scheme still equals
// centralized SRA. On top of it:
//   * the leader re-issues an unanswered token grant and, after exhausting
//     its (padded) retries, skips the site (presumed crashed); a skipped
//     site rejoins the active list when it recovers (explicit Rejoin
//     message) or when a late token return proves it alive;
//   * a fetch falls back from the nearest replicator to the primary when
//     the nearest stops answering; an unobtainable object is pruned.
// The leader site itself is assumed to stay up (the paper's monitor-style
// coordinator); a plan that crashes it is rejected.
//
// Property (tested): with the same round-robin order, the resulting scheme
// is identical to centralized solve_sra — on a perfect network exactly, and
// under seeded message loss as long as no exchange exhausted its retries
// (retry_stats.give_ups == 0).

#include <optional>

#include "algo/result.hpp"
#include "sim/des.hpp"

namespace drep::sim {

struct DistributedSraOptions {
  SiteId leader_site = 0;
  double latency_per_cost = 1.0;
  /// Fault injection; nullopt = perfect network (no retry timers at all,
  /// byte-identical traffic to the original protocol).
  std::optional<FaultPlan> faults;
  /// Timeout/backoff parameters; only consulted when `faults` is set.
  RetryPolicy retry;
};

struct DistributedSraResult {
  core::ReplicationScheme scheme;
  /// Control/data message counts, the object-migration data traffic, and
  /// the fault-plan casualty counters.
  TrafficStats traffic;
  std::size_t token_passes = 0;
  std::size_t replications = 0;
  SimTime duration = 0.0;
  /// Retry-layer counters (all zero on a perfect network).
  RetryStats retry_stats;
  /// Sites the leader gave up on after exhausting token-grant retries.
  std::size_t sites_skipped = 0;
  /// Skipped sites re-admitted to the active list (recovery or late reply).
  std::size_t rejoins = 0;
};

/// Runs the token protocol to completion. `leader_site` hosts the LS list
/// (and participates in replication like any other site).
[[nodiscard]] DistributedSraResult run_distributed_sra(
    const core::Problem& problem, SiteId leader_site = 0,
    double latency_per_cost = 1.0);

/// Full-options variant. Throws std::invalid_argument when the leader is
/// out of range or the fault plan crashes the leader site.
[[nodiscard]] DistributedSraResult run_distributed_sra(
    const core::Problem& problem, const DistributedSraOptions& options);

}  // namespace drep::sim
