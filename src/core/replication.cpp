#include "core/replication.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/index.hpp"

namespace drep::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ReplicationScheme::ReplicationScheme(const Problem& problem)
    : problem_(&problem) {
  const std::size_t n = problem.objects();
  const std::size_t cells = problem.demand_cells();
  replicas_.assign(n, {});
  nearest_site_.assign(cells, 0);
  nearest_cost_.assign(cells, kInf);
  used_.assign(problem.sites(), 0.0);
  for (ObjectId k = 0; k < n; ++k) {
    const SiteId sp = problem.primary(k);
    replicas_[k].push_back(sp);
    used_[sp] += problem.object_size(k);
    ++total_replicas_;
    // C is symmetric (CostMatrix::set writes both halves), so walking the
    // row reads C(SP_k, i) == C(i, SP_k) in site order, cache-friendly.
    const auto sp_row = problem.costs().row(sp);
    const auto sites = problem.demand_sites(k);
    const std::size_t begin = problem.demand_begin(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      nearest_site_[begin + j] = sp;
      nearest_cost_[begin + j] = sp_row[sites[j]];
    }
  }
}

ReplicationScheme::ReplicationScheme(const Problem& problem,
                                     std::span<const std::uint8_t> matrix)
    : ReplicationScheme(problem) {
  const std::size_t n = problem.objects();
  if (matrix.size() != problem.sites() * n)
    throw std::invalid_argument("ReplicationScheme: matrix size mismatch");
  for (SiteId i = 0; i < problem.sites(); ++i) {
    for (ObjectId k = 0; k < n; ++k) {
      if (matrix[util::dense_cell(i, n, k)] != 0) add(i, k);
    }
  }
}

bool ReplicationScheme::has_replica(SiteId i, ObjectId k) const {
  const auto& list = replicas_.at(k);
  return std::binary_search(list.begin(), list.end(), i);
}

std::vector<std::uint8_t> ReplicationScheme::matrix() const {
  const std::size_t n = problem_->objects();
  std::vector<std::uint8_t> out(problem_->sites() * n, 0);
  for (ObjectId k = 0; k < n; ++k) {
    for (const SiteId i : replicas_[k]) out[util::dense_cell(i, n, k)] = 1;
  }
  return out;
}

ReplicationScheme::Top2 ReplicationScheme::top2(SiteId j, ObjectId k) const {
  // Ascending site-id iteration + strict closer_replica comparisons give the
  // same entries any add/remove history would: a pure function of R_k.
  const SiteId sp = problem_->primary(k);
  Top2 top{sp, kInf, sp, kInf};
  for (const SiteId rep : replicas_[k]) {
    const double rc = problem_->cost(j, rep);
    if (closer_replica(rc, rep, top.best_cost, top.best_site)) {
      top.second_cost = top.best_cost;
      top.second_site = top.best_site;
      top.best_cost = rc;
      top.best_site = rep;
    } else if (closer_replica(rc, rep, top.second_cost, top.second_site)) {
      top.second_cost = rc;
      top.second_site = rep;
    }
  }
  if (top.second_cost == kInf) top.second_site = sp;
  return top;
}

SiteId ReplicationScheme::nearest(SiteId i, ObjectId k) const {
  const std::size_t z = problem_->demand_index(i, k);
  return z == Problem::kAbsent ? top2(i, k).best_site : nearest_site_[z];
}

double ReplicationScheme::nearest_cost(SiteId i, ObjectId k) const {
  const std::size_t z = problem_->demand_index(i, k);
  return z == Problem::kAbsent ? top2(i, k).best_cost : nearest_cost_[z];
}

SiteId ReplicationScheme::second_nearest(SiteId i, ObjectId k) const {
  return top2(i, k).second_site;
}

double ReplicationScheme::second_nearest_cost(SiteId i, ObjectId k) const {
  return top2(i, k).second_cost;
}

bool ReplicationScheme::is_valid() const {
  for (SiteId i = 0; i < problem_->sites(); ++i) {
    if (used_[i] > problem_->capacity(i) + capacity_slack(i)) return false;
  }
  return true;
}

void ReplicationScheme::add(SiteId i, ObjectId k) {
  if (i >= problem_->sites())
    throw std::out_of_range("ReplicationScheme::add: site out of range");
  auto& list = replicas_.at(k);
  const auto pos = std::lower_bound(list.begin(), list.end(), i);
  if (pos != list.end() && *pos == i) return;
  list.insert(pos, i);
  used_[i] += problem_->object_size(k);
  ++total_replicas_;
  const auto i_row = problem_->costs().row(i);  // C(i, j) == C(j, i)
  const auto sites = problem_->demand_sites(k);
  const std::size_t begin = problem_->demand_begin(k);
  for (std::size_t j = 0; j < sites.size(); ++j) {
    const std::size_t z = begin + j;
    const double via_new = i_row[sites[j]];
    if (closer_replica(via_new, i, nearest_cost_[z], nearest_site_[z])) {
      nearest_cost_[z] = via_new;
      nearest_site_[z] = i;
    }
  }
}

void ReplicationScheme::remove(SiteId i, ObjectId k) {
  if (i == problem_->primary(k))
    throw std::invalid_argument(
        "ReplicationScheme::remove: primary copies cannot be deallocated");
  auto& list = replicas_.at(k);
  const auto pos = std::lower_bound(list.begin(), list.end(), i);
  if (pos == list.end() || *pos != i) return;
  list.erase(pos);
  used_[i] -= problem_->object_size(k);
  --total_replicas_;

  const auto sites = problem_->demand_sites(k);
  const std::size_t begin = problem_->demand_begin(k);
  for (std::size_t j = 0; j < sites.size(); ++j) {
    const std::size_t z = begin + j;
    if (nearest_site_[z] != i) continue;
    const Top2 top = top2(sites[j], k);
    nearest_site_[z] = top.best_site;
    nearest_cost_[z] = top.best_cost;
  }
}

}  // namespace drep::core
