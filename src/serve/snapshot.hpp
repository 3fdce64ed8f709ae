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
// Layout: one routing table of the full-row shape, cell k·M + i for site i
// and object k, holding SN_k(i) and C(i, SN_k(i)) copied verbatim from the
// scheme's nearest caches, so a read is two independent loads. Beside it
// sit one copy of the M×M cost matrix and, per object, SP_k and W_k: a
// write at (i, k) costs C[SP_k·M + i] + W_k. freeze() refuses a scheme
// whose problem has partial demand rows (std::invalid_argument); that is
// the only full-row check serving needs.
//
// Every snapshot carries its generation (the publish version) and a
// checksum over all frozen arrays, so audit::check_snapshot_coherence can
// certify both internal integrity (no torn/corrupted table) and fidelity to
// the scheme it was frozen from. The checksum is one word_hash digest per
// array, folded with the header in a fixed field order. freeze() bulk-
// copies each array and then stamps compute_checksum(), so a freeze costs
// about two passes over the table's memory.

#include <cstddef>
#include <cstdint>
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
  /// snapshot is self-contained (the costs are copied out of the problem),
  /// so it outlives scheme and problem alike. Throws std::invalid_argument
  /// when the problem has partial demand rows.
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

  /// Serves one request. Pure function of (snapshot, request): the engine's
  /// cross-worker determinism rests on exactly this. The hot path: ids are
  /// not checked.
  [[nodiscard]] Outcome serve(core::SiteId site, core::ObjectId object,
                              bool is_write) const noexcept {
    if (is_write) {
      const core::SiteId sp = primary_[object];
      return {sp, costs_[static_cast<std::size_t>(sp) * sites_ + site] +
                      write_surcharge_[object]};
    }
    const std::size_t z = static_cast<std::size_t>(object) * sites_ + site;
    return {nearest_site_[z], nearest_cost_[z]};
  }
  /// Checked lookups (std::out_of_range for an id out of range).
  [[nodiscard]] core::SiteId nearest(core::SiteId i, core::ObjectId k) const {
    return nearest_site_.at(cell(i, k));
  }
  [[nodiscard]] double nearest_cost(core::SiteId i, core::ObjectId k) const {
    return nearest_cost_.at(cell(i, k));
  }
  /// C(i, j) as frozen.
  [[nodiscard]] double cost(core::SiteId i, core::SiteId j) const;
  /// C(SP_k, i): the forwarding term of a write at (i, k).
  [[nodiscard]] double primary_cost(core::SiteId i, core::ObjectId k) const {
    return cost(primary(k), i);
  }
  [[nodiscard]] core::SiteId primary(core::ObjectId k) const {
    return primary_.at(k);
  }
  /// W_k: Σ_{r ∈ R_k} C(SP_k, r), frozen in ascending replica order.
  [[nodiscard]] double write_surcharge(core::ObjectId k) const {
    return write_surcharge_.at(k);
  }

  /// Negative-testing / fuzz hook: flips one bit of the routing table
  /// WITHOUT updating the stamped checksum, simulating a torn or corrupted
  /// publish. audit::check_snapshot_coherence must flag the result. Never
  /// call on a published snapshot.
  void debug_corrupt(std::size_t cell);

 private:
  SchemeSnapshot() = default;

  /// Index k·M + i of a routing cell, for the checked lookups.
  [[nodiscard]] std::size_t cell(core::SiteId site,
                                 core::ObjectId object) const;

  std::uint64_t generation_ = 0;
  std::size_t sites_ = 0;
  std::size_t objects_ = 0;
  std::size_t total_replicas_ = 0;
  std::uint64_t checksum_ = 0;

  std::vector<core::SiteId> nearest_site_;  // M·N, cell k·M + i
  std::vector<double> nearest_cost_;        // M·N
  std::vector<double> costs_;               // M×M, row-major: C(i, j)
  std::vector<core::SiteId> primary_;       // per object
  std::vector<double> write_surcharge_;     // per object
};

}  // namespace drep::serve
