#include "net/topology.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace drep::net {

CostMatrix::CostMatrix(std::size_t sites, double fill)
    : sites_(sites), cells_(sites * sites, fill) {
  for (std::size_t i = 0; i < sites_; ++i) cells_[i * sites_ + i] = 0.0;
}

void CostMatrix::set(SiteId i, SiteId j, double value) {
  check(i), check(j);
  if (value < 0.0 || std::isnan(value))
    throw std::invalid_argument("CostMatrix::set: negative or NaN cost");
  if (i == j) {
    if (value != 0.0)
      throw std::invalid_argument("CostMatrix::set: diagonal must stay zero");
    return;
  }
  cells_[static_cast<std::size_t>(i) * sites_ + j] = value;
  cells_[static_cast<std::size_t>(j) * sites_ + i] = value;
}

double CostMatrix::row_sum(SiteId i) const {
  check(i);
  double sum = 0.0;
  for (std::size_t j = 0; j < sites_; ++j)
    sum += cells_[static_cast<std::size_t>(i) * sites_ + j];
  return sum;
}

double CostMatrix::mean_row_sum() const {
  if (sites_ == 0) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < sites_; ++i)
    total += row_sum(static_cast<SiteId>(i));
  return total / static_cast<double>(sites_);
}

bool CostMatrix::is_metric(double* max_violation) const {
  double worst = 0.0;
  bool metric = true;
  for (std::size_t i = 0; i < sites_ && metric; ++i) {
    for (std::size_t j = 0; j < sites_; ++j) {
      const double direct = cells_[i * sites_ + j];
      if (!std::isfinite(direct) || direct != cells_[j * sites_ + i] ||
          (i == j && direct != 0.0)) {
        metric = false;
        worst = std::numeric_limits<double>::infinity();
        break;
      }
    }
  }
  // Tolerate tiny floating-point slack from summed path weights.
  constexpr double kSlack = 1e-9;
  if (metric) {
    // The entries are symmetric (checked above), so triangle (j, i, k)
    // computes the same excess as (i, j, k): j >= i covers every triangle.
    // Without max_violation only the verdict is wanted, so the scan stops at
    // the first excess past the slack.
    for (std::size_t i = 0; i < sites_; ++i) {
      const double* const row_i = cells_.data() + i * sites_;
      for (std::size_t k = 0; k < sites_; ++k) {
        const double* const row_k = cells_.data() + k * sites_;
        const double ik = row_i[k];
        for (std::size_t j = i; j < sites_; ++j) {
          const double excess = row_i[j] - (ik + row_k[j]);
          if (excess > worst) worst = excess;
        }
        if (max_violation == nullptr && worst > kSlack) return false;
      }
    }
    metric = worst <= kSlack;
  }
  if (max_violation != nullptr) *max_violation = worst;
  return metric;
}

void CostMatrix::check(SiteId i) const {
  if (i >= sites_) throw std::out_of_range("CostMatrix: site id out of range");
}

Graph::Graph(std::size_t sites) : adjacency_(sites) {}

void Graph::add_edge(SiteId a, SiteId b, double weight) {
  if (a >= sites() || b >= sites())
    throw std::invalid_argument("Graph::add_edge: endpoint out of range");
  if (a == b) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (!(weight > 0.0) || std::isnan(weight))
    throw std::invalid_argument("Graph::add_edge: weight must be positive");
  adjacency_[a].push_back({b, weight});
  adjacency_[b].push_back({a, weight});
  ++edges_;
}

bool Graph::connected() const {
  if (sites() == 0) return true;
  std::vector<bool> seen(sites(), false);
  std::vector<SiteId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const SiteId v = stack.back();
    stack.pop_back();
    for (const Edge& e : adjacency_[v]) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        ++visited;
        stack.push_back(e.to);
      }
    }
  }
  return visited == sites();
}

}  // namespace drep::net
