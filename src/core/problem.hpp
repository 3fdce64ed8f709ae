#pragma once
// The Data Replication Problem (DRP) instance (paper Section 2).
//
// An instance bundles the shortest-path cost matrix C(i,j), the object sizes
// o_k, the primary sites SP_k, the per-site storage capacities s(i), and the
// read/write request counts r_k(i), w_k(i). Per-object request totals are
// maintained incrementally because the cost model and the greedy benefit
// (Eq. 5) consume them in hot loops.
//
// Demand rows. Request counts are stored per object in CSR layout: object
// k's row lists sites in ascending order with their (r_k(i), w_k(i)) cell.
// Eq. 4 and Eq. 5 only ever read cells where r_k(i) or w_k(i) is nonzero,
// so every kernel walks rows and scales in stored cells, not in M·N.
//   * A full row lists all M sites, zero cells included. The four-argument
//     constructor makes every row full, so every cell is writable and the
//     cell of site i sits at demand_begin(k) + i — an O(1) lookup. Its
//     sites are 0..M-1, one list shared by every full row.
//   * A partial row lists only some sites (workload::build_sparse_instance
//     stores the demanding ones). Absent cells read as 0 and refuse writes;
//     point lookups binary-search the row.
// Whether a row is full is a property of its data (it has M cells), never
// a mode: every kernel runs the same code on both shapes, and an absent
// cell contributes exactly the +0.0 a stored zero cell would.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "net/topology.hpp"

namespace drep::core {

using net::SiteId;
using ObjectId = std::uint32_t;

/// One cell of an object's demand row: the requests one site issues.
struct DemandEntry {
  SiteId site = 0;
  double reads = 0.0;
  double writes = 0.0;
};

/// A single DRP instance. Immutable topology/sizes/primaries/capacities and
/// row shapes; mutable request counts on stored cells (the adaptive
/// experiments rewrite them).
class Problem {
 public:
  /// Object k's demand row, ascending by site id (see the partial-row
  /// constructor).
  using DemandRowFn = std::function<std::vector<DemandEntry>(ObjectId)>;

  /// Returned by demand_index() for a cell its row does not store.
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

  /// Full rows: every (site, object) cell is stored, all counts zero.
  /// Takes ownership of all components. Throws std::invalid_argument when
  /// shapes disagree, a size is not positive, a primary is out of range, or
  /// a capacity is negative.
  Problem(net::CostMatrix costs, std::vector<double> object_sizes,
          std::vector<SiteId> primaries, std::vector<double> capacities);

  /// Rows as given: `row(k)` is called once per object, k ascending, and
  /// must return cells strictly ascending by site id, in range, with finite
  /// non-negative counts (std::invalid_argument otherwise). Totals
  /// accumulate in row order. A row listing all M sites is full.
  Problem(net::CostMatrix costs, std::vector<double> object_sizes,
          std::vector<SiteId> primaries, std::vector<double> capacities,
          const DemandRowFn& row);

  [[nodiscard]] std::size_t sites() const noexcept { return capacities_.size(); }
  [[nodiscard]] std::size_t objects() const noexcept { return sizes_.size(); }

  [[nodiscard]] const net::CostMatrix& costs() const noexcept { return costs_; }
  /// Per-unit transfer cost C(i,j).
  [[nodiscard]] double cost(SiteId i, SiteId j) const { return costs_.at(i, j); }

  /// Object size o_k in data units.
  [[nodiscard]] double object_size(ObjectId k) const { return sizes_.at(k); }
  /// Primary site SP_k.
  [[nodiscard]] SiteId primary(ObjectId k) const { return primaries_.at(k); }
  /// Storage capacity s(i) in data units.
  [[nodiscard]] double capacity(SiteId i) const { return capacities_.at(i); }
  /// Σ_k o_k, accumulated in ascending object order.
  [[nodiscard]] double total_object_size() const noexcept { return total_size_; }

  // --- demand rows ---------------------------------------------------------

  /// Stored cells Σ_k |row k| (M·N when every row is full).
  [[nodiscard]] std::size_t demand_cells() const noexcept {
    return reads_.size();
  }
  /// Object k's row is cells [demand_begin(k), demand_end(k)) of
  /// demand_reads()/demand_writes(); cell demand_begin(k) + j belongs to
  /// site demand_sites(k)[j].
  [[nodiscard]] std::size_t demand_begin(ObjectId k) const {
    return offsets_.at(k);
  }
  [[nodiscard]] std::size_t demand_end(ObjectId k) const {
    return offsets_.at(static_cast<std::size_t>(k) + 1);
  }
  /// The sites of object k's row, ascending (0..M-1 on a full row).
  [[nodiscard]] std::span<const SiteId> demand_sites(ObjectId k) const {
    const std::size_t begin = demand_begin(k);
    const std::size_t length = demand_end(k) - begin;
    if (length == sites()) return all_sites_;
    return {cell_sites_.data() + begin, length};
  }
  [[nodiscard]] std::span<const double> demand_reads() const noexcept {
    return reads_;
  }
  [[nodiscard]] std::span<const double> demand_writes() const noexcept {
    return writes_;
  }
  /// Index of cell (i, k) in the demand arrays, or kAbsent when the row
  /// does not store it. O(1) on a full row, O(log |row|) on a partial one.
  /// Throws std::out_of_range when i or k is out of range.
  [[nodiscard]] std::size_t demand_index(SiteId i, ObjectId k) const {
    if (i >= sites() || k >= objects()) throw_out_of_range();
    const std::size_t begin = offsets_[k];
    const std::size_t end = offsets_[static_cast<std::size_t>(k) + 1];
    if (end - begin == sites()) return begin + i;
    return find_in_row(i, begin, end);
  }

  /// Read count r_k(i) for the measurement period; 0 on an absent cell.
  [[nodiscard]] double reads(SiteId i, ObjectId k) const {
    const std::size_t z = demand_index(i, k);
    return z == kAbsent ? 0.0 : reads_[z];
  }
  /// Write count w_k(i); 0 on an absent cell.
  [[nodiscard]] double writes(SiteId i, ObjectId k) const {
    const std::size_t z = demand_index(i, k);
    return z == kAbsent ? 0.0 : writes_[z];
  }
  /// Σ_i r_k(i), maintained incrementally; O(1).
  [[nodiscard]] double total_reads(ObjectId k) const { return total_reads_.at(k); }
  /// Σ_i w_k(i), maintained incrementally; O(1).
  [[nodiscard]] double total_writes(ObjectId k) const { return total_writes_.at(k); }

  /// Setters keep the per-object totals consistent. Counts must be finite
  /// and non-negative; the cell must be stored (std::invalid_argument on a
  /// cell absent from a partial row, with the totals untouched).
  void set_reads(SiteId i, ObjectId k, double count);
  void set_writes(SiteId i, ObjectId k, double count);
  void add_reads(SiteId i, ObjectId k, double delta);
  void add_writes(SiteId i, ObjectId k, double delta);

  /// Sum over all objects of reads+writes; used for sanity reporting.
  [[nodiscard]] double total_requests() const;

  /// Throws std::invalid_argument when any structural invariant is broken:
  /// the cost matrix must be a metric (finite, symmetric, zero diagonal,
  /// triangle inequality — O(M³)), and every site must be able to store the
  /// primaries assigned to it, or no feasible replication matrix exists.
  void validate() const;

  /// The same instance with every row full (absent cells stored as zeros,
  /// totals carried over bit for bit). Allocates M·N cells, so it is a
  /// differential-test tool, not a scale-path one.
  [[nodiscard]] Problem materialize() const;

 private:
  /// Both constructors: checks the components, zeroes the totals, sums
  /// o_k and lists the sites of a full row.
  void check_components();
  [[noreturn]] static void throw_out_of_range();
  /// Binary search of a partial row [begin, end) for site i.
  [[nodiscard]] std::size_t find_in_row(SiteId i, std::size_t begin,
                                        std::size_t end) const;
  /// demand_index() of a cell a setter may write; throws when absent.
  [[nodiscard]] std::size_t stored_cell(SiteId i, ObjectId k,
                                        const char* what) const {
    const std::size_t z = demand_index(i, k);
    if (z == kAbsent) throw_absent(i, k, what);
    return z;
  }
  [[noreturn]] static void throw_absent(SiteId i, ObjectId k,
                                        const char* what);

  net::CostMatrix costs_;
  std::vector<double> sizes_;
  std::vector<SiteId> primaries_;
  std::vector<double> capacities_;
  std::vector<std::size_t> offsets_;  // N+1 row starts
  std::vector<SiteId> all_sites_;     // 0..M-1, the sites of a full row
  std::vector<SiteId> cell_sites_;    // per cell of given rows; else empty
  std::vector<double> reads_;         // per stored cell
  std::vector<double> writes_;        // per stored cell
  std::vector<double> total_reads_;
  std::vector<double> total_writes_;
  double total_size_ = 0.0;
};

}  // namespace drep::core
