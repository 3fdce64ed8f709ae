#pragma once
// Replication scheme: the replica sets R_k of the boolean M×N matrix X plus
// the derived state the algorithms need in their inner loops — per-object
// replica lists kept sorted by site id (ascending, duplicate-free, so
// iteration order is deterministic and history-independent), the nearest
// replica SN_k(i) and its cost per demand cell of the Problem (paper
// Section 2.1; 12 bytes a cell), and per-site used storage. All derived
// state is maintained incrementally, and none of it is sized M·N: the cache
// follows the Problem's demand rows, which are M·N only when every row is
// full (core/problem.hpp). The second-nearest replica, which only removals
// need, is derived from R_k on demand.
//
// Determinism contract: every nearest/second-nearest decision orders
// replicas by the lexicographic (cost, site id) key — on equal cost the
// LOWEST site id wins. The cached entries are therefore a pure function of
// the replica *set*: the same replica sets reached through any add/remove
// history carry identical cache entries (the SRA tie-break convention,
// enforced structurally).

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.hpp"

namespace drep::core {

struct AvailabilityConstraint;  // core/availability.hpp

/// A (mutable) replication scheme bound to a Problem instance. The scheme
/// holds a reference to the problem; it must not outlive it.
///
/// Invariants (enforced by every mutator):
///   * SP_k ∈ R_k for every object (primary copies are immovable);
///   * replica lists (sorted ascending), the demand-cell nearest cache, and
///     used-capacity accounting always agree with each other;
///   * the cached nearest is the lex-smallest (cost, site id) replicator.
/// Capacity is *checked* via fits()/is_valid() but not enforced on add(), so
/// that the GA repair operators can inspect transiently invalid states.
class ReplicationScheme {
 public:
  /// Relative epsilon of the capacity policy: the used-storage ledger is
  /// maintained by += / -= of object sizes, so after long add/remove churn
  /// (AGRA retunes, epoch loops) it can drift from the exact matrix sum by
  /// a few ulps per operation. Capacity comparisons therefore tolerate
  /// capacity_slack(i) — anything the ledger could plausibly have accrued —
  /// instead of demanding exact arithmetic.
  static constexpr double kCapacityRelEps = 1e-9;

  /// Primary-copies-only scheme (the paper's initial allocation, D_prime).
  explicit ReplicationScheme(const Problem& problem);

  /// Builds a scheme from a row-major M×N boolean matrix. Primary bits are
  /// forced to 1. Throws std::invalid_argument on a size mismatch.
  ReplicationScheme(const Problem& problem,
                    std::span<const std::uint8_t> matrix);

  [[nodiscard]] const Problem& problem() const noexcept { return *problem_; }

  /// X_ik: true when site i holds a replica of object k. O(log |R_k|).
  [[nodiscard]] bool has_replica(SiteId i, ObjectId k) const;
  /// Replicators of object k (always contains SP_k), sorted ascending by
  /// site id.
  [[nodiscard]] const std::vector<SiteId>& replicas(ObjectId k) const {
    return replicas_.at(k);
  }
  /// X as a row-major M×N 0/1 matrix (a GA chromosome), built from the
  /// replica lists on each call.
  [[nodiscard]] std::vector<std::uint8_t> matrix() const;

  /// SN_k(i): the replicator of k closest to site i (possibly i itself).
  /// Cost ties resolve to the lowest site id. A cached read on a demand
  /// cell; computed from R_k when the cell is absent from a partial row.
  [[nodiscard]] SiteId nearest(SiteId i, ObjectId k) const;
  /// C(i, SN_k(i)); zero when i is itself a replicator.
  [[nodiscard]] double nearest_cost(SiteId i, ObjectId k) const;
  /// The second-closest replicator of k from site i (lex (cost, id) order
  /// after SN_k(i)) — what site i re-homes to if SN_k(i) disappears. When
  /// |R_k| < 2 there is no fallback: second_nearest_cost is +infinity and
  /// second_nearest returns SP_k as a sentinel. Not cached: O(|R_k|).
  [[nodiscard]] SiteId second_nearest(SiteId i, ObjectId k) const;
  [[nodiscard]] double second_nearest_cost(SiteId i, ObjectId k) const;

  /// The nearest cache at demand cell z (an index into the Problem's demand
  /// arrays), with the semantics of nearest()/nearest_cost().
  [[nodiscard]] SiteId nearest_site_at(std::size_t z) const {
    return nearest_site_.at(z);
  }
  [[nodiscard]] double nearest_cost_at(std::size_t z) const {
    return nearest_cost_.at(z);
  }
  /// Unchecked view of the whole nearest-cost cache (demand-cell indexed)
  /// for hot scans that already hold in-range indices.
  [[nodiscard]] const double* nearest_cost_data() const noexcept {
    return nearest_cost_.data();
  }
  /// The whole nearest-site cache (demand-cell indexed), for bulk copies.
  [[nodiscard]] std::span<const SiteId> nearest_sites() const noexcept {
    return nearest_site_;
  }

  /// Data units of storage consumed at site i by this scheme.
  [[nodiscard]] double used(SiteId i) const { return used_.at(i); }
  /// s(i) minus used(i) (the paper's b(i)); may be negative if over-full.
  [[nodiscard]] double free_capacity(SiteId i) const {
    return problem_->capacity(i) - used_.at(i);
  }
  /// Absolute tolerance for capacity comparisons at site i:
  /// kCapacityRelEps × (1 + s(i) + Σ_k o_k). Scales with the largest value
  /// the ledger ever represents (a site can hold at most every object), so
  /// it bounds the drift of any add/remove history.
  [[nodiscard]] double capacity_slack(SiteId i) const {
    return kCapacityRelEps *
           (1.0 + problem_->capacity(i) + problem_->total_object_size());
  }
  /// True when object k currently fits in site i's remaining capacity,
  /// within capacity_slack(i) — a shortfall smaller than the slack is
  /// indistinguishable from ledger drift and must not flip the decision.
  [[nodiscard]] bool fits(SiteId i, ObjectId k) const {
    return free_capacity(i) >= problem_->object_size(k) - capacity_slack(i);
  }
  /// True when no site exceeds its capacity by more than capacity_slack.
  [[nodiscard]] bool is_valid() const;
  /// Capacity validity AND every object meets the availability target
  /// (core/availability.hpp; defined in availability.cpp). Throws
  /// std::invalid_argument when the constraint is malformed for this
  /// problem.
  [[nodiscard]] bool is_valid(const AvailabilityConstraint& constraint) const;

  /// Adds a replica of k at i and updates the nearest cache of object k's
  /// demand row in O(|row|). No-op when the replica already exists. Does
  /// not check capacity.
  void add(SiteId i, ObjectId k);
  /// Removes the replica of k at i. Cells whose nearest replica is not i
  /// are untouched (O(1)); the others re-derive their nearest from the
  /// remaining replicas — O(|row| + A·|R_k|) with A the number of such
  /// cells. Throws std::invalid_argument when i is SP_k; no-op when absent.
  void remove(SiteId i, ObjectId k);

  /// Total replica count Σ_k |R_k| (primaries included).
  [[nodiscard]] std::size_t total_replicas() const noexcept { return total_replicas_; }
  /// Replicas created beyond the N primaries — the quantity Fig. 1(b)/(d)
  /// plot.
  [[nodiscard]] std::size_t extra_replicas() const noexcept {
    return total_replicas_ - problem_->objects();
  }

 private:
  /// The lex (cost, id) top-2 replicators of k seen from site j; second is
  /// the (+inf, SP_k) sentinel when |R_k| < 2.
  struct Top2 {
    SiteId best_site;
    double best_cost;
    SiteId second_site;
    double second_cost;
  };
  [[nodiscard]] Top2 top2(SiteId j, ObjectId k) const;

  const Problem* problem_;
  std::vector<std::vector<SiteId>> replicas_;  // per object, ascending
  // Nearest cache, one entry per demand cell of the problem.
  std::vector<SiteId> nearest_site_;
  std::vector<double> nearest_cost_;
  std::vector<double> used_;
  std::size_t total_replicas_ = 0;
};

/// The deterministic replica ordering: true when replica a at cost `cost_a`
/// beats replica b at `cost_b` — strictly cheaper, or equal cost with the
/// lower site id. Shared by the scheme and the audit validators so every
/// layer breaks ties identically.
[[nodiscard]] constexpr bool closer_replica(double cost_a, SiteId a,
                                            double cost_b, SiteId b) noexcept {
  return cost_a < cost_b || (cost_a == cost_b && a < b);
}

}  // namespace drep::core
