#include "core/cost_model.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace drep::core {

namespace {
/// Σ_i w_k(i)·C(i,SP_k) over object k's demand row: every write travels to
/// the primary first. `sp_row` is C(SP_k, ·) (C is symmetric).
double write_base(const Problem& p, ObjectId k,
                  std::span<const double> sp_row) {
  const auto sites = p.demand_sites(k);
  const double* writes = p.demand_writes().data() + p.demand_begin(k);
  double base = 0.0;
  for (std::size_t j = 0; j < sites.size(); ++j)
    base += writes[j] * sp_row[sites[j]];
  return base;
}

/// Σ_{j∈R_k} (TW_k - w_k(j))·C(j,SP_k): each replica receives the primary's
/// broadcast of every write but its own. A full row indexes the replica's
/// cell directly; a partial row looks it up.
double write_surcharge(const Problem& p, ObjectId k,
                       std::span<const SiteId> replicas,
                       std::span<const double> sp_row) {
  const double total_writes = p.total_writes(k);
  const std::size_t begin = p.demand_begin(k);
  double surcharge = 0.0;
  if (p.demand_end(k) - begin == p.sites()) {
    const double* writes = p.demand_writes().data() + begin;
    for (SiteId rep : replicas)
      surcharge += (total_writes - writes[rep]) * sp_row[rep];
  } else {
    for (SiteId rep : replicas)
      surcharge += (total_writes - p.writes(rep, k)) * sp_row[rep];
  }
  return surcharge;
}

/// Write-side NTC of object k under receiver-pays bookkeeping: the common
/// base plus the per-replica surcharge. See cost_model.hpp.
double write_cost_of_object(const Problem& p, ObjectId k,
                            std::span<const SiteId> replicas) {
  const auto sp_row = p.costs().row(p.primary(k));
  return p.object_size(k) *
         (write_base(p, k, sp_row) + write_surcharge(p, k, replicas, sp_row));
}

/// Σ_i r_k(i)·C(i,SN_k(i)) over object k's demand row.
double read_sum_of_object(const ReplicationScheme& scheme, ObjectId k) {
  const Problem& p = scheme.problem();
  const auto reads = p.demand_reads();
  const double* nearest_cost = scheme.nearest_cost_data();
  const std::size_t end = p.demand_end(k);
  double read = 0.0;
  for (std::size_t z = p.demand_begin(k); z < end; ++z)
    read += reads[z] * nearest_cost[z];
  return read;
}
}  // namespace

double total_cost(const ReplicationScheme& scheme) {
  const CostBreakdown parts = cost_breakdown(scheme);
  return parts.total();
}

CostBreakdown cost_breakdown(const ReplicationScheme& scheme) {
  const Problem& p = scheme.problem();
  CostBreakdown parts;
  for (ObjectId k = 0; k < p.objects(); ++k) {
    parts.read_cost += p.object_size(k) * read_sum_of_object(scheme, k);
    parts.write_cost += write_cost_of_object(p, k, scheme.replicas(k));
  }
  return parts;
}

double object_cost(const ReplicationScheme& scheme, ObjectId k) {
  const Problem& p = scheme.problem();
  return p.object_size(k) * read_sum_of_object(scheme, k) +
         write_cost_of_object(p, k, scheme.replicas(k));
}

double total_cost_writer_view(const ReplicationScheme& scheme) {
  const Problem& p = scheme.problem();
  const auto reads = p.demand_reads();
  const auto writes = p.demand_writes();
  double total = 0.0;
  for (ObjectId k = 0; k < p.objects(); ++k) {
    const double o = p.object_size(k);
    const SiteId sp = p.primary(k);
    const auto sites = p.demand_sites(k);
    const std::size_t begin = p.demand_begin(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      const std::size_t z = begin + j;
      const SiteId i = sites[j];
      // Reads served by the nearest replica (Eq. 1).
      total += reads[z] * o * scheme.nearest_cost_at(z);
      // Writes: ship to the primary, which broadcasts to every replicator
      // except the writer itself (Eq. 2).
      const double w = writes[z];
      if (w == 0.0) continue;
      double per_write = p.cost(i, sp);
      for (SiteId rep : scheme.replicas(k)) {
        if (rep != i) per_write += p.cost(sp, rep);
      }
      total += w * o * per_write;
    }
  }
  return total;
}

double primary_only_cost(const Problem& problem) {
  double total = 0.0;
  for (ObjectId k = 0; k < problem.objects(); ++k)
    total += object_primary_only_cost(problem, k);
  return total;
}

double object_primary_only_cost(const Problem& problem, ObjectId k) {
  const auto sp_row = problem.costs().row(problem.primary(k));  // symmetric C
  const auto sites = problem.demand_sites(k);
  const std::size_t begin = problem.demand_begin(k);
  const auto reads = problem.demand_reads().subspan(begin, sites.size());
  const auto writes = problem.demand_writes().subspan(begin, sites.size());
  double requests = 0.0;
  for (std::size_t j = 0; j < sites.size(); ++j)
    requests += (reads[j] + writes[j]) * sp_row[sites[j]];
  return problem.object_size(k) * requests;
}

double savings_fraction(const Problem& problem, double cost) {
  const double d_prime = primary_only_cost(problem);
  if (d_prime <= 0.0) return 0.0;
  return (d_prime - cost) / d_prime;
}

double savings_percent(const Problem& problem, const ReplicationScheme& scheme) {
  return 100.0 * savings_fraction(problem, total_cost(scheme));
}

double migration_cost(const ReplicationScheme& from,
                      const ReplicationScheme& to) {
  if (&from.problem() != &to.problem())
    throw std::invalid_argument("migration_cost: schemes bound to different problems");
  const Problem& p = from.problem();
  double total = 0.0;
  for (ObjectId k = 0; k < p.objects(); ++k) {
    for (const SiteId i : to.replicas(k)) {
      if (from.has_replica(i, k)) continue;
      // New replica at i: fetched from the nearest previous holder.
      total += p.object_size(k) * from.nearest_cost(i, k);
    }
  }
  return total;
}

CostEvaluator::CostEvaluator(const Problem& problem)
    : problem_(&problem), nearest_(problem.sites()) {
  refresh();
  replica_buf_.reserve(problem.sites());
}

void CostEvaluator::refresh() {
  const Problem& p = *problem_;
  const std::size_t n = p.objects();
  base_write_.assign(n, 0.0);
  v_prime_.assign(n, 0.0);
  d_prime_ = 0.0;
  for (ObjectId k = 0; k < n; ++k) {
    base_write_[k] = write_base(p, k, p.costs().row(p.primary(k)));
    v_prime_[k] = core::object_primary_only_cost(p, k);
    d_prime_ += v_prime_[k];
  }
}

double CostEvaluator::total_cost(std::span<const std::uint8_t> matrix) {
  const std::size_t n = problem_->objects();
  if (matrix.size() != problem_->sites() * n)
    throw std::invalid_argument("CostEvaluator::total_cost: matrix size mismatch");
  double total = 0.0;
  for (ObjectId k = 0; k < n; ++k)
    total += strided_cost(k, matrix.data() + k, n);
  return total;
}

double CostEvaluator::full_cost(std::span<const std::uint8_t> matrix,
                                std::span<double> object_costs) {
  const std::size_t n = problem_->objects();
  if (matrix.size() != problem_->sites() * n)
    throw std::invalid_argument("CostEvaluator::full_cost: matrix size mismatch");
  if (object_costs.size() != n)
    throw std::invalid_argument("CostEvaluator::full_cost: object_costs size mismatch");
  for (ObjectId k = 0; k < n; ++k)
    object_costs[k] = strided_cost(k, matrix.data() + k, n);
  return std::accumulate(object_costs.begin(), object_costs.end(), 0.0);
}

double CostEvaluator::delta_cost(std::span<const std::uint8_t> matrix,
                                 std::span<const ObjectId> changed,
                                 std::span<double> object_costs) {
  const std::size_t n = problem_->objects();
  if (matrix.size() != problem_->sites() * n)
    throw std::invalid_argument("CostEvaluator::delta_cost: matrix size mismatch");
  if (object_costs.size() != n)
    throw std::invalid_argument("CostEvaluator::delta_cost: object_costs size mismatch");
  for (const ObjectId k : changed) {
    if (k >= n)
      throw std::out_of_range("CostEvaluator::delta_cost: object out of range");
    object_costs[k] = strided_cost(k, matrix.data() + k, n);
  }
  return std::accumulate(object_costs.begin(), object_costs.end(), 0.0);
}

double CostEvaluator::column_cost(std::span<const std::uint8_t> matrix,
                                  ObjectId k) {
  const std::size_t n = problem_->objects();
  if (matrix.size() != problem_->sites() * n)
    throw std::invalid_argument("CostEvaluator::column_cost: matrix size mismatch");
  if (k >= n)
    throw std::out_of_range("CostEvaluator::column_cost: object out of range");
  return strided_cost(k, matrix.data() + k, n);
}

double CostEvaluator::object_cost(ObjectId k,
                                  std::span<const std::uint8_t> site_mask) {
  if (site_mask.size() != problem_->sites())
    throw std::invalid_argument("CostEvaluator::object_cost: mask size mismatch");
  if (k >= problem_->objects())
    throw std::out_of_range("CostEvaluator::object_cost: object out of range");
  return strided_cost(k, site_mask.data(), 1);
}

double CostEvaluator::strided_cost(ObjectId k, const std::uint8_t* bits,
                                   std::size_t stride) {
  const std::size_t m = problem_->sites();
  const SiteId sp = problem_->primary(k);
  replica_buf_.clear();
  for (SiteId i = 0; i < m; ++i) {
    if (i == sp || bits[i * stride] != 0) replica_buf_.push_back(i);
  }
  return object_cost_with_replicas(k, replica_buf_);
}

double CostEvaluator::object_cost_with_replicas(
    ObjectId k, std::span<const SiteId> replicas) {
  const Problem& p = *problem_;
  const auto sp_row = p.costs().row(p.primary(k));
  const auto sites = p.demand_sites(k);
  const std::size_t cells = sites.size();
  const bool full_row = cells == p.sites();
  const double* reads = p.demand_reads().data() + p.demand_begin(k);
  ++objects_recomputed_;

  // C(i, SN_k(i)) for every cell of the row, one min pass per replica in
  // replica order: each cell sees the same min sequence as a per-cell scan
  // of R_k (and min is exact anyway). A full row's cells are the sites
  // 0..M-1, so its passes run over contiguous costs.
  double* nearest = nearest_.data();
  std::fill(nearest, nearest + cells, std::numeric_limits<double>::infinity());
  for (const SiteId rep : replicas) {
    const double* row = p.costs().row(rep).data();
    if (full_row) {
      for (std::size_t j = 0; j < cells; ++j)
        nearest[j] = std::min(nearest[j], row[j]);
    } else {
      for (std::size_t j = 0; j < cells; ++j)
        nearest[j] = std::min(nearest[j], row[sites[j]]);
    }
  }
  // Read traffic in row order over the nonzero readers only. A zero-read
  // cell adds exactly +0.0 to the sum, so skipping it leaves every partial
  // sum bit-identical.
  double read_sum = 0.0;
  for (std::size_t j = 0; j < cells; ++j) {
    if (reads[j] != 0.0) read_sum += reads[j] * nearest[j];
  }
  const double surcharge = write_surcharge(p, k, replicas, sp_row);
  return p.object_size(k) * (read_sum + base_write_[k] + surcharge);
}

double CostEvaluator::fitness(std::span<const std::uint8_t> matrix) {
  if (d_prime_ <= 0.0) return 0.0;
  return (d_prime_ - total_cost(matrix)) / d_prime_;
}

double CostEvaluator::full_equivalents() const noexcept {
  const std::size_t n = problem_->objects();
  if (n == 0) return 0.0;
  return static_cast<double>(objects_recomputed_) / static_cast<double>(n);
}

}  // namespace drep::core
