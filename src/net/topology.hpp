#pragma once
// Network topology primitives.
//
// The paper models the interconnect as a weighted graph whose links carry a
// positive per-data-unit transfer cost; the cost C(i,j) used by the DRP is
// the *cumulative cost of the shortest path* between sites i and j (Section
// 2). We therefore keep two representations: a sparse weighted Graph (what a
// deployment would configure) and the dense symmetric CostMatrix produced by
// its shortest-path closure (what the algorithms consume).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace drep::net {

/// Index of a site in [0, M).
using SiteId = std::uint32_t;

/// Dense symmetric per-unit transfer cost matrix with a zero diagonal.
class CostMatrix {
 public:
  /// All off-diagonal entries start at `fill` (default: +infinity, i.e.
  /// "no known path"); the diagonal is always zero.
  explicit CostMatrix(std::size_t sites,
                      double fill = std::numeric_limits<double>::infinity());

  [[nodiscard]] std::size_t sites() const noexcept { return sites_; }

  [[nodiscard]] double at(SiteId i, SiteId j) const {
    check(i), check(j);
    return cells_[static_cast<std::size_t>(i) * sites_ + j];
  }

  /// Sets both (i,j) and (j,i); the matrix is symmetric by construction.
  /// Throws std::invalid_argument on a negative cost or on the diagonal
  /// (which is fixed at zero) unless value is zero.
  void set(SiteId i, SiteId j, double value);

  /// Row i as a contiguous span: row(i)[j] == C(i,j). Bounds-checked once;
  /// used by the cost-model inner loops.
  [[nodiscard]] std::span<const double> row(SiteId i) const {
    check(i);
    return {cells_.data() + static_cast<std::size_t>(i) * sites_, sites_};
  }

  /// Sum of a row: Σ_x C(i,x). Used by the AGRA deallocation estimator
  /// (Eq. 6, "local proportional link weights").
  [[nodiscard]] double row_sum(SiteId i) const;
  /// Mean of all row sums: Σ_l Σ_x C(l,x) / M.
  [[nodiscard]] double mean_row_sum() const;

  /// True when every entry is finite, symmetric, zero-diagonal, and the
  /// triangle inequality holds (within 1e-9). If `max_violation` is non-null
  /// it receives the largest C(i,j) - (C(i,k)+C(k,j)) excess (0 when none
  /// is positive, +inf when an entry fails the first three checks); without
  /// it the triangle scan stops at the first violation.
  [[nodiscard]] bool is_metric(double* max_violation = nullptr) const;

 private:
  void check(SiteId i) const;

  // Runs Floyd–Warshall over the raw rows (net/shortest_paths.hpp).
  friend CostMatrix metric_closure(const CostMatrix& costs);

  std::size_t sites_;
  std::vector<double> cells_;
};

/// A weighted undirected edge.
struct Edge {
  SiteId to;
  double weight;
};

/// Sparse undirected weighted graph over `sites()` vertices.
class Graph {
 public:
  explicit Graph(std::size_t sites);

  [[nodiscard]] std::size_t sites() const noexcept { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Adds an undirected edge; throws std::invalid_argument on self-loops,
  /// non-positive weights, or out-of-range endpoints. Parallel edges are
  /// allowed (the shortest-path closure picks the cheaper one).
  void add_edge(SiteId a, SiteId b, double weight);

  [[nodiscard]] const std::vector<Edge>& neighbors(SiteId v) const {
    return adjacency_.at(v);
  }

  /// True when every vertex is reachable from vertex 0 (or the graph is
  /// empty).
  [[nodiscard]] bool connected() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
  std::size_t edges_ = 0;
};

}  // namespace drep::net
