#include "core/benefit.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace drep::core {

double local_benefit(const ReplicationScheme& scheme, SiteId i, ObjectId k) {
  const Problem& p = scheme.problem();
  if (scheme.has_replica(i, k)) return 0.0;
  const double read_saved = p.reads(i, k) * scheme.nearest_cost(i, k);
  const double update_cost =
      (p.total_writes(k) - p.writes(i, k)) * p.cost(i, p.primary(k));
  return read_saved - update_cost;
}

double insertion_delta(const ReplicationScheme& scheme, SiteId i, ObjectId k) {
  const Problem& p = scheme.problem();
  if (scheme.has_replica(i, k)) return 0.0;
  const double o = p.object_size(k);
  // Local view: B·o flipped in sign.
  double delta = -o * local_benefit(scheme, i, k);
  // Global correction: other sites whose reads would re-home to i. Only the
  // demand row can read; an absent cell's term is an exact zero.
  const auto i_row = p.costs().row(i);
  const auto sites = p.demand_sites(k);
  const std::size_t begin = p.demand_begin(k);
  const auto reads = p.demand_reads();
  for (std::size_t c = 0; c < sites.size(); ++c) {
    const SiteId j = sites[c];
    if (j == i) continue;
    const double current = scheme.nearest_cost_at(begin + c);
    if (i_row[j] < current) delta += reads[begin + c] * o * (i_row[j] - current);
  }
  return delta;
}

double removal_delta(const ReplicationScheme& scheme, SiteId i, ObjectId k) {
  const Problem& p = scheme.problem();
  if (i == p.primary(k))
    throw std::invalid_argument("removal_delta: primary copies are immovable");
  if (!scheme.has_replica(i, k)) return 0.0;
  const double o = p.object_size(k);
  // The replica stops receiving updates...
  double delta = -(p.total_writes(k) - p.writes(i, k)) * o * p.cost(i, p.primary(k));
  // ...but every demand cell whose nearest replica is i re-homes to its
  // second-best, derived from R_k (finite whenever i is a non-primary
  // replica, since SP_k is always present too). That is the min over
  // R_k \ {i} exactly — min of doubles is order-exact.
  const auto i_row = p.costs().row(i);  // C(i, j) == C(j, i)
  const auto sites = p.demand_sites(k);
  const std::size_t begin = p.demand_begin(k);
  const auto reads = p.demand_reads();
  for (std::size_t j = 0; j < sites.size(); ++j) {
    const std::size_t z = begin + j;
    if (scheme.nearest_site_at(z) != i) continue;
    delta += reads[z] * o *
             (scheme.second_nearest_cost(sites[j], k) - i_row[sites[j]]);
  }
  return delta;
}

std::vector<double> proportional_link_weights(const Problem& problem) {
  const std::size_t m = problem.sites();
  std::vector<double> weights(m, 1.0);
  const double mean = problem.costs().mean_row_sum();
  if (mean <= 0.0) return weights;  // degenerate single-site network
  for (SiteId i = 0; i < m; ++i)
    weights[i] = problem.costs().row_sum(i) / mean;
  return weights;
}

double deallocation_estimate(const ReplicationScheme& scheme,
                             std::span<const double> plw, SiteId i,
                             ObjectId k) {
  const Problem& p = scheme.problem();
  if (plw.size() != p.sites())
    throw std::invalid_argument("deallocation_estimate: plw size mismatch");
  const double numerator = p.total_reads(k) + p.writes(i, k) -
                           p.total_writes(k) +
                           p.reads(i, k) * p.capacity(i) / p.object_size(k);
  const double degree = static_cast<double>(scheme.replicas(k).size());
  // A perfectly central site has plw ~ 0 only in degenerate topologies;
  // guard so the estimate stays finite and ordering-stable.
  const double denominator = std::max(plw[i], 1e-12) * std::max(degree, 1.0);
  return numerator / denominator;
}

}  // namespace drep::core
