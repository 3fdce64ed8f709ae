#pragma once
// Immutable, versioned scheme snapshots for the serving front-end.
//
// The serving engine (serve/engine.hpp) routes millions of simulated
// requests per second against the *current* replication scheme. The mutable
// core::ReplicationScheme is built for incremental solver edits, not for
// lock-free concurrent reads, so the engine never touches it directly:
// a retune freezes the finished scheme into a SchemeSnapshot — a flat,
// read-only routing table — and publishes that through the RCU domain
// (serve/rcu.hpp). Readers only ever dereference const arrays of an object
// that is never mutated after construction, which is what makes the reader
// hot path safe with zero synchronization beyond the pin protocol.
//
// Serving cost model (per request, against one coherent snapshot):
//   read  at (i, k)  -> served by SN_k(i), cost C(i, SN_k(i))   (Eq. 4's
//                       per-read term, with the scheme's lex (cost, id)
//                       nearest contract baked into the frozen table);
//   write at (i, k)  -> served by SP_k, cost C(i, SP_k) + W_k where
//                       W_k = Σ_{r ∈ R_k} C(SP_k, r) is the frozen
//                       propagation surcharge of object k's replica set.
//
// Layout: one routing entry per demand cell of the Problem, in its CSR
// order (core/problem.hpp), with a copy of the row offsets. On a full-row
// instance that is every (site, object) cell, the site of cell z is
// z mod M, and serve(i, k) indexes cell k·M + i in O(1) (the serving hot
// path); on a partial-row instance it is the cells any workload over that
// instance can hit, with their sites copied too, addressed by demand-cell
// index through serve_cell().
//
// Every snapshot carries its generation (the publish version) and a
// checksum over all frozen arrays, so audit::check_snapshot_coherence can
// certify both internal integrity (no torn/corrupted table) and fidelity to
// the scheme it was frozen from. The checksum is one word_hash digest per
// array, folded with the header in a fixed field order. freeze() bulk-
// copies each array (the nearest entries are the scheme's demand-cell
// cache verbatim; a full row's primary costs are row SP_k of the symmetric
// C) and then stamps compute_checksum(), so a freeze costs about two
// passes over the table's memory.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/replication.hpp"

namespace drep::serve {

/// Bytes one round of word_hash's four lanes consumes.
inline constexpr std::size_t kWordHashStride = 4 * sizeof(std::uint64_t);

/// Multi-lane, word-at-a-time 64-bit hash of one array. Lane l folds words
/// l, l + 4, l + 8, … (8 bytes each, read with memcpy; the last one zero-
/// padded) by the step h = rotl((h ^ w) · odd, 29), a bijection in h and in
/// w, and the digest folds the byte count and the lanes the same way:
/// changing any single word changes the digest. The lanes are independent
/// multiply chains, so the hash runs at memory speed instead of one
/// multiply per byte.
[[nodiscard]] std::uint64_t word_hash(const void* data,
                                      std::size_t size) noexcept;

/// Result of serving one request against a snapshot.
struct Outcome {
  core::SiteId served_by = 0;
  double cost = 0.0;
};

class SchemeSnapshot {
 public:
  /// Freezes a scheme's routing table, stamped with `generation`. The
  /// snapshot is self-contained (costs and row addressing are copied out of
  /// the problem), so it outlives scheme and problem alike.
  [[nodiscard]] static SchemeSnapshot freeze(
      const core::ReplicationScheme& scheme, std::uint64_t generation);

  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  [[nodiscard]] std::size_t sites() const noexcept { return sites_; }
  [[nodiscard]] std::size_t objects() const noexcept { return objects_; }
  [[nodiscard]] std::size_t total_replicas() const noexcept {
    return total_replicas_;
  }
  /// The checksum stamped at freeze time.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return checksum_; }
  /// Recomputes the checksum from the frozen arrays; equal to checksum()
  /// on every intact snapshot.
  [[nodiscard]] std::uint64_t compute_checksum() const noexcept;

  // --- routing by (site, object) ------------------------------------------

  /// True when every row is full: the table covers every (site, object)
  /// cell, at index k·M + i.
  [[nodiscard]] bool full_rows() const noexcept { return full_rows_; }

  /// Serves one request. Pure function of (snapshot, request): the engine's
  /// cross-worker determinism rests on exactly this. The hot path: requires
  /// full_rows() and in-range ids (unchecked); a partial-row snapshot is
  /// served by demand cell through serve_cell().
  [[nodiscard]] Outcome serve(core::SiteId site, core::ObjectId object,
                              bool is_write) const noexcept {
    assert(full_rows_);
    return serve_cell(static_cast<std::size_t>(object) * sites_ + site,
                      object, is_write);
  }
  /// Checked lookups by (site, object): O(1) on full rows, a binary search
  /// of the row otherwise; std::out_of_range for a cell never frozen.
  [[nodiscard]] core::SiteId nearest(core::SiteId i, core::ObjectId k) const {
    return nearest_site_.at(cell(i, k));
  }
  [[nodiscard]] double nearest_cost(core::SiteId i, core::ObjectId k) const {
    return nearest_cost_.at(cell(i, k));
  }
  [[nodiscard]] double primary_cost(core::SiteId i, core::ObjectId k) const {
    return primary_cost_.at(cell(i, k));
  }

  [[nodiscard]] core::SiteId primary(core::ObjectId k) const {
    return primary_.at(k);
  }
  /// W_k: Σ_{r ∈ R_k} C(SP_k, r), frozen in ascending replica order.
  [[nodiscard]] double write_surcharge(core::ObjectId k) const {
    return write_surcharge_.at(k);
  }

  // --- routing by demand cell ----------------------------------------------

  [[nodiscard]] std::size_t demand_cells() const noexcept {
    return nearest_site_.size();
  }
  [[nodiscard]] std::size_t demand_begin(core::ObjectId k) const {
    return demand_offsets_.at(k);
  }
  [[nodiscard]] std::size_t demand_end(core::ObjectId k) const {
    return demand_offsets_.at(static_cast<std::size_t>(k) + 1);
  }
  [[nodiscard]] core::SiteId demand_site(std::size_t z) const;
  /// Serves a request issued from demand cell z of object k (unchecked).
  [[nodiscard]] Outcome serve_cell(std::size_t z, core::ObjectId object,
                                   bool is_write) const noexcept {
    if (is_write)
      return {primary_[object], primary_cost_[z] + write_surcharge_[object]};
    return {nearest_site_[z], nearest_cost_[z]};
  }
  [[nodiscard]] core::SiteId nearest_at(std::size_t z) const {
    return nearest_site_.at(z);
  }
  [[nodiscard]] double nearest_cost_at(std::size_t z) const {
    return nearest_cost_.at(z);
  }
  [[nodiscard]] double primary_cost_at(std::size_t z) const {
    return primary_cost_.at(z);
  }

  /// Negative-testing / fuzz hook: flips one bit of the routing table
  /// WITHOUT updating the stamped checksum, simulating a torn or corrupted
  /// publish. audit::check_snapshot_coherence must flag the result. Never
  /// call on a published snapshot.
  void debug_corrupt(std::size_t cell);

 private:
  SchemeSnapshot() = default;

  /// Demand-cell index of (site, object) for the checked lookups.
  [[nodiscard]] std::size_t cell(core::SiteId site,
                                 core::ObjectId object) const;

  std::uint64_t generation_ = 0;
  std::size_t sites_ = 0;
  std::size_t objects_ = 0;
  std::size_t total_replicas_ = 0;
  std::uint64_t checksum_ = 0;
  bool full_rows_ = false;  // every row lists all sites: cell = k·M + i

  // One entry per demand cell, in the problem's CSR order.
  std::vector<core::SiteId> nearest_site_;
  std::vector<double> nearest_cost_;
  std::vector<double> primary_cost_;  // C(cell site, SP_k)
  std::vector<core::SiteId> primary_;        // per object
  std::vector<double> write_surcharge_;      // per object
  // Copy of the problem's row addressing; the sites only for partial rows.
  std::vector<std::size_t> demand_offsets_;  // N+1
  std::vector<core::SiteId> demand_sites_;   // per demand cell, or empty
};

}  // namespace drep::serve
