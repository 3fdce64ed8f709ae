#pragma once
// DREP_AUDIT invariant validators (DESIGN.md Section 9).
//
// Three PRs of incremental machinery — nearest-replica maps, capacity
// ledgers, per-individual V_k caches, retry/dedup tables — maintain state
// redundantly for speed. Every validator here cross-checks one such
// structure against a from-scratch recomputation of the ground truth it is
// supposed to mirror (ultimately Eq. 4), returning the list of violated
// invariants instead of asserting, so callers can aggregate, log, or throw.
//
// The validators are always compiled (the fuzz driver and the audit tests
// call them directly); the *inline hooks* in the solver/simulator hot paths
// are compile-time gated behind -DDREP_AUDIT=ON via audit/gate.hpp. With the
// option OFF the hooks vanish and library behavior is unchanged.
//
// Layering: this module sits directly above core (it needs ReplicationScheme,
// CostEvaluator, and the benefit/cost kernels). Checks for sim-layer
// aggregates (DES traffic conservation, epoch accounting, retune rounds)
// deliberately take plain counters/spans instead of sim types so that sim
// can link against audit without a dependency cycle.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/replication.hpp"

namespace drep::audit {

/// One violated invariant: a stable dotted name plus a human-readable
/// mismatch description (expected vs found, with indices).
struct Violation {
  std::string invariant;
  std::string detail;
};

using Violations = std::vector<Violation>;

/// Thrown by enforce(). Carries every violation found, not just the first,
/// so one fuzz failure shows the whole divergence pattern.
class AuditFailure : public std::runtime_error {
 public:
  AuditFailure(const std::string& where, Violations violations);
  [[nodiscard]] const Violations& violations() const noexcept {
    return violations_;
  }

 private:
  Violations violations_;
};

/// Throws AuditFailure when `violations` is non-empty; no-op otherwise.
void enforce(Violations violations, const std::string& where);

/// Concatenates violation lists (for sites that run several checks).
[[nodiscard]] Violations merge(Violations a, Violations b);

// --- core structures ------------------------------------------------------

/// ReplicationScheme internal consistency: the replica lists are the ground
/// truth, and the nearest cache, used-storage ledger, and replica counter
/// must all agree with them. One pass over the Problem's demand rows, for
/// full and partial rows alike.
///   * scheme.replica_list  — replicas(k) strictly ascending, in range, and
///                            holding the primary SP_k
///   * scheme.nearest_*     — at every demand cell, (nearest, nearest cost)
///                            is the exact lex (cost, site id) minimum over
///                            R_k (cost entries are copied, never summed, so
///                            equality is exact; on cost ties the LOWEST
///                            site id must have won — the
///                            history-independence contract)
///   * scheme.used_ledger   — |used(i) - Σ_{k: i∈R_k} o_k| <=
///                            capacity_slack(i) (the explicit epsilon policy
///                            for += / -= churn)
///   * scheme.replica_count — total_replicas() == Σ_k |R_k|
[[nodiscard]] Violations check_scheme(const core::ReplicationScheme& scheme);

/// GA cache check: a per-object cost vector `v` carried alongside chromosome
/// `matrix` (the GRA incremental-evaluation path, AGRA's exact-ΔD repair)
/// must equal a from-scratch evaluation, per object and in total,
/// bit-for-bit (CostEvaluator's exactness guarantee). The evaluation uses a
/// fresh CostEvaluator built from `problem`, so a V_k left stale by a
/// request-pattern change is caught as well as a corrupted entry.
[[nodiscard]] Violations check_object_cost_cache(
    const core::Problem& problem, std::span<const std::uint8_t> matrix,
    std::span<const double> v);

/// SRA candidate-pruning soundness, checked at termination: pruning a
/// candidate (non-positive benefit, or it no longer fits) is only sound if
/// the condition can never flip back — benefits are non-increasing and free
/// capacity only shrinks while SRA runs. Terminal ground truth: no
/// (site, object) pair without a replica may still fit with strictly
/// positive Eq. 5 benefit (only demand cells can, so the check walks the
/// rows).
[[nodiscard]] Violations check_sra_terminal(
    const core::ReplicationScheme& scheme);

/// Availability-constraint conformance (core/availability.hpp): every
/// object's replica set must reach the target A_k = 1 - Π_{i∈R}(1 - a_i)
/// within the constraint's epsilon. Reports scheme.availability per
/// violating object (expected target vs achieved, with the replica list).
[[nodiscard]] Violations check_availability(
    const core::ReplicationScheme& scheme,
    const core::AvailabilityConstraint& constraint);

// --- online decision layer ------------------------------------------------

/// One replicate/evict decision of the online engine (src/online/), in the
/// order it was taken. The engine appends to its log at decision time; the
/// validator below replays the log to certify the whole mid-epoch
/// trajectory, not just the final scheme. Plain core types only, so audit
/// stays below online in the layering.
struct OnlineAction {
  enum class Kind : std::uint8_t { kReplicate = 0, kEvict = 1 };
  Kind kind = Kind::kReplicate;
  core::SiteId site = 0;
  core::ObjectId object = 0;
  /// Index of the trace request that triggered the decision.
  std::uint64_t request_index = 0;
};

/// Online-engine trajectory invariants: starting from `initial` (row-major
/// M×N), applying `log` in order must
///   * never evict a primary copy,
///   * never replicate an already-present replica or evict an absent one
///     (either means the log diverged from the scheme it claims to record),
///   * keep every intermediate scheme is_valid() under the capacity slack
///     policy, and
///   * land bit-for-bit on `final_scheme`'s matrix.
[[nodiscard]] Violations check_online_log(
    const core::Problem& problem, std::span<const std::uint8_t> initial,
    std::span<const OnlineAction> log,
    const core::ReplicationScheme& final_scheme);

// --- sim aggregates (plain counters; see layering note above) -------------

/// DES message conservation: sent = delivered + dropped + in-flight.
struct MessageCounts {
  std::size_t sent = 0;
  std::size_t delivered_data = 0;
  std::size_t delivered_control = 0;
  std::size_t dropped_link = 0;
  std::size_t dropped_site_down = 0;
  /// Messages still queued (0 after a drained run()).
  std::size_t in_flight = 0;
};
[[nodiscard]] Violations check_message_conservation(
    const MessageCounts& counts);

/// EpochReport traffic accounting: the served / migration totals must equal
/// the sum of the per-epoch charges they were accumulated from.
[[nodiscard]] Violations check_epoch_accounting(
    double served_total, std::span<const double> epoch_served,
    double migration_total, std::span<const double> epoch_migration);

/// Monitor retune round on a *perfect* network: directive idempotence and
/// exactly-once rollout imply the measured fetch traffic equals the analytic
/// migration NTC, and every retry/failure counter is zero. (Under faults
/// retransmitted fetches legitimately break the equality; the per-directive
/// double-execution guard inside the protocol still applies.)
struct PerfectRetuneCounts {
  double data_traffic = 0.0;
  double migration_traffic = 0.0;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t give_ups = 0;
  std::size_t duplicates = 0;
  std::size_t reports_missing = 0;
  std::size_t directives_failed = 0;
};
[[nodiscard]] Violations check_perfect_retune(
    const PerfectRetuneCounts& counts);

/// One accepted protocol envelope, as recorded by a DES protocol's receive
/// path *after* dedup (sim/envelope.hpp). Plain integers only — the kind is
/// the raw tag value — so audit stays below sim in the layering.
struct EnvelopeRecord {
  std::size_t sender = 0;
  std::uint16_t kind = 0;
  std::uint64_t seq = 0;
};

/// Envelope at-most-once invariant: among *accepted* records, no
/// (sender, kind, seq) appears twice — the receive filter
/// (ReliableChannel::accept) admitted a duplicate otherwise. Arrival order
/// is free: a message overtaken by a later one is still accepted once.
/// Unsequenced control records (seq == 0) are exempt.
[[nodiscard]] Violations check_envelope_log(
    std::span<const EnvelopeRecord> log);

/// Decentralized-vs-centralized convergence (DESIGN.md Section 15). On a
/// perfect network the decentralized GA must reproduce the centralized
/// island solver bit-for-bit: identical cost, scheme hash, and evaluation
/// count. Under an armed fault plan the equality is relaxed to the pinned
/// graceful-degradation ceiling: decentralized cost must stay within
/// cost_ceiling_factor × the centralized cost.
struct DistConvergenceCounts {
  bool perfect_network = true;
  double decentralized_cost = 0.0;
  double centralized_cost = 0.0;
  std::uint64_t decentralized_scheme_hash = 0;
  std::uint64_t centralized_scheme_hash = 0;
  std::size_t decentralized_evaluations = 0;
  std::size_t centralized_evaluations = 0;
  double cost_ceiling_factor = 1.10;
};
[[nodiscard]] Violations check_dist_convergence(
    const DistConvergenceCounts& counts);

}  // namespace drep::audit
