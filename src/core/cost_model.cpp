#include "core/cost_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/index.hpp"

namespace drep::core {

namespace {
/// Write-side NTC of object k under receiver-pays bookkeeping, divided into
/// the common Σ_i w_k(i)·C(i,SP_k) base over the demand row plus the
/// per-replica surcharge Σ_{j∈R_k} (TW_k - w_k(j))·C(j,SP_k). See
/// cost_model.hpp.
double write_cost_of_object(const Problem& p, ObjectId k,
                            std::span<const SiteId> replicas) {
  const SiteId sp = p.primary(k);
  const auto sp_row = p.costs().row(sp);  // C symmetric: C(SP_k, i) == C(i, SP_k)
  const auto sites = p.demand_sites(k);
  const auto writes = p.demand_writes().subspan(p.demand_begin(k), sites.size());
  const double total_writes = p.total_writes(k);
  double base = 0.0;
  for (std::size_t j = 0; j < sites.size(); ++j)
    base += writes[j] * sp_row[sites[j]];
  double surcharge = 0.0;
  for (SiteId rep : replicas)
    surcharge += (total_writes - p.writes(rep, k)) * p.cost(rep, sp);
  return p.object_size(k) * (base + surcharge);
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

CostEvaluator::CostEvaluator(const Problem& problem) : problem_(&problem) {
  refresh();
}

void CostEvaluator::refresh() {
  const Problem& p = *problem_;
  const std::size_t m = p.sites();
  const std::size_t n = p.objects();
  read_offsets_.assign(n + 1, 0);
  read_sites_.clear();
  read_values_.clear();
  writes_t_.assign(n * m, 0.0);
  base_write_.assign(n, 0.0);
  v_prime_.assign(n, 0.0);
  d_prime_ = 0.0;
  for (ObjectId k = 0; k < n; ++k) {
    const auto sp_row = p.costs().row(p.primary(k));
    double base = 0.0;
    double prime_requests = 0.0;
    for (SiteId i = 0; i < m; ++i) {
      const double r = p.reads(i, k);
      const double w = p.writes(i, k);
      if (r != 0.0) {
        read_sites_.push_back(i);
        read_values_.push_back(r);
      }
      writes_t_[util::dense_cell(k, m, i)] = w;
      base += w * sp_row[i];
      prime_requests += (r + w) * sp_row[i];
    }
    read_offsets_[static_cast<std::size_t>(k) + 1] = read_sites_.size();
    base_write_[k] = base;
    v_prime_[k] = p.object_size(k) * prime_requests;
    d_prime_ += v_prime_[k];
  }
  row_ptrs_.clear();
  row_ptrs_.reserve(m);
  replica_buf_.clear();
  replica_buf_.reserve(m);
}

double CostEvaluator::total_cost(std::span<const std::uint8_t> matrix) {
  const Problem& p = *problem_;
  const std::size_t m = p.sites();
  const std::size_t n = p.objects();
  if (matrix.size() != m * n)
    throw std::invalid_argument("CostEvaluator::total_cost: matrix size mismatch");
  double total = 0.0;
  for (ObjectId k = 0; k < n; ++k) {
    replica_buf_.clear();
    const SiteId sp = p.primary(k);
    for (SiteId i = 0; i < m; ++i) {
      if (i == sp || matrix[static_cast<std::size_t>(i) * n + k] != 0)
        replica_buf_.push_back(i);
    }
    total += object_cost_with_replicas(k, replica_buf_);
  }
  return total;
}

double CostEvaluator::object_cost(ObjectId k,
                                  std::span<const std::uint8_t> site_mask) {
  const Problem& p = *problem_;
  const std::size_t m = p.sites();
  if (site_mask.size() != m)
    throw std::invalid_argument("CostEvaluator::object_cost: mask size mismatch");
  if (k >= p.objects())
    throw std::out_of_range("CostEvaluator::object_cost: object out of range");
  replica_buf_.clear();
  const SiteId sp = p.primary(k);
  for (SiteId i = 0; i < m; ++i) {
    if (i == sp || site_mask[i] != 0) replica_buf_.push_back(i);
  }
  return object_cost_with_replicas(k, replica_buf_);
}

double CostEvaluator::object_cost_with_replicas(
    ObjectId k, std::span<const SiteId> replicas) {
  const Problem& p = *problem_;
  const std::size_t m = p.sites();
  const SiteId sp = p.primary(k);
  const auto sp_row = p.costs().row(sp);
  const double* writes = writes_t_.data() + util::dense_cell(k, m, SiteId{0});
  const double total_writes = p.total_writes(k);
  const std::size_t nz_begin = read_offsets_[k];
  const std::size_t nz_end = read_offsets_[static_cast<std::size_t>(k) + 1];

  // Read traffic over the nonzero readers only. A zero-read site adds
  // exactly +0.0 to the dense sum, so skipping it leaves every partial sum
  // bit-identical; min over doubles is exact, so restricting the min scan to
  // the sites that matter changes nothing either.
  double read_sum = 0.0;
  if (replicas.size() == 1) {
    // Primary only: the nearest replica of every site is SP_k.
    for (std::size_t z = nz_begin; z < nz_end; ++z)
      read_sum += read_values_[z] * sp_row[read_sites_[z]];
  } else {
    row_ptrs_.clear();
    for (SiteId rep : replicas) row_ptrs_.push_back(p.costs().row(rep).data());
    for (std::size_t z = nz_begin; z < nz_end; ++z) {
      const SiteId i = read_sites_[z];
      double best = std::numeric_limits<double>::infinity();
      for (const double* row : row_ptrs_) best = std::min(best, row[i]);
      read_sum += read_values_[z] * best;
    }
  }

  double surcharge = 0.0;
  for (SiteId rep : replicas)
    surcharge += (total_writes - writes[rep]) * sp_row[rep];
  return p.object_size(k) * (read_sum + base_write_[k] + surcharge);
}

double CostEvaluator::fitness(std::span<const std::uint8_t> matrix) {
  if (d_prime_ <= 0.0) return 0.0;
  return (d_prime_ - total_cost(matrix)) / d_prime_;
}

DeltaEvaluator::DeltaEvaluator(const Problem& problem) : eval_(problem) {
  scratch_replicas_.reserve(problem.sites());
}

void DeltaEvaluator::refresh() {
  eval_.refresh();
  if (!has_baseline()) return;
  const std::size_t n = problem().objects();
  for (ObjectId k = 0; k < n; ++k) {
    v_[k] = eval_.object_cost_with_replicas(k, replicas_[k]);
  }
  objects_recomputed_ += n;
  total_ = sum_object_costs(v_);
}

double DeltaEvaluator::rebase(std::span<const std::uint8_t> matrix) {
  const Problem& p = problem();
  const std::size_t m = p.sites();
  const std::size_t n = p.objects();
  if (matrix.size() != m * n)
    throw std::invalid_argument("DeltaEvaluator::rebase: matrix size mismatch");
  matrix_.assign(matrix.begin(), matrix.end());
  replicas_.assign(n, std::vector<SiteId>());
  v_.assign(n, 0.0);
  for (ObjectId k = 0; k < n; ++k) {
    const SiteId sp = p.primary(k);
    matrix_[static_cast<std::size_t>(sp) * n + k] = 1;
    auto& reps = replicas_[k];
    for (SiteId i = 0; i < m; ++i) {
      if (matrix_[static_cast<std::size_t>(i) * n + k] != 0) reps.push_back(i);
    }
    v_[k] = eval_.object_cost_with_replicas(k, reps);
  }
  objects_recomputed_ += n;
  total_ = sum_object_costs(v_);
  return total_;
}

double DeltaEvaluator::total() const {
  if (!has_baseline())
    throw std::logic_error("DeltaEvaluator::total: no baseline (call rebase)");
  return total_;
}

double DeltaEvaluator::fitness() const {
  const double d_prime = eval_.primary_only_cost();
  if (d_prime <= 0.0) return 0.0;
  return (d_prime - total()) / d_prime;
}

bool DeltaEvaluator::has_replica(SiteId i, ObjectId k) const {
  if (!has_baseline())
    throw std::logic_error("DeltaEvaluator::has_replica: no baseline");
  const std::size_t n = problem().objects();
  if (i >= problem().sites() || k >= n)
    throw std::out_of_range("DeltaEvaluator::has_replica: cell out of range");
  return matrix_[static_cast<std::size_t>(i) * n + k] != 0;
}

double DeltaEvaluator::peek_flip(SiteId site, ObjectId k) {
  const bool present = has_replica(site, k);  // validates state and bounds
  if (problem().primary(k) == site && present)
    throw std::invalid_argument("DeltaEvaluator::peek_flip: cannot drop a primary copy");
  scratch_replicas_.clear();
  for (SiteId rep : replicas_[k]) {
    if (!(present && rep == site)) scratch_replicas_.push_back(rep);
  }
  if (!present) {
    scratch_replicas_.insert(
        std::upper_bound(scratch_replicas_.begin(), scratch_replicas_.end(), site),
        site);
  }
  ++objects_recomputed_;
  return total_ - v_[k] + eval_.object_cost_with_replicas(k, scratch_replicas_);
}

double DeltaEvaluator::apply_flip(SiteId site, ObjectId k) {
  const bool present = has_replica(site, k);
  if (problem().primary(k) == site && present)
    throw std::invalid_argument("DeltaEvaluator::apply_flip: cannot drop a primary copy");
  const std::size_t n = problem().objects();
  auto& reps = replicas_[k];
  if (present) {
    reps.erase(std::find(reps.begin(), reps.end(), site));
  } else {
    reps.insert(std::upper_bound(reps.begin(), reps.end(), site), site);
  }
  matrix_[static_cast<std::size_t>(site) * n + k] = present ? 0 : 1;
  v_[k] = eval_.object_cost_with_replicas(k, reps);
  ++objects_recomputed_;
  total_ = sum_object_costs(v_);
  return total_;
}

double DeltaEvaluator::apply_gene_exchange(SiteId site,
                                           std::span<const std::uint8_t> row) {
  if (!has_baseline())
    throw std::logic_error("DeltaEvaluator::apply_gene_exchange: no baseline");
  const Problem& p = problem();
  const std::size_t n = p.objects();
  if (site >= p.sites())
    throw std::out_of_range("DeltaEvaluator::apply_gene_exchange: site out of range");
  if (row.size() != n)
    throw std::invalid_argument("DeltaEvaluator::apply_gene_exchange: row length mismatch");
  bool any_changed = false;
  for (ObjectId k = 0; k < n; ++k) {
    const bool want = row[k] != 0 || p.primary(k) == site;
    std::uint8_t& cell = matrix_[static_cast<std::size_t>(site) * n + k];
    if ((cell != 0) == want) continue;
    auto& reps = replicas_[k];
    if (want) {
      reps.insert(std::upper_bound(reps.begin(), reps.end(), site), site);
    } else {
      reps.erase(std::find(reps.begin(), reps.end(), site));
    }
    cell = want ? 1 : 0;
    v_[k] = eval_.object_cost_with_replicas(k, reps);
    ++objects_recomputed_;
    any_changed = true;
  }
  if (any_changed) total_ = sum_object_costs(v_);
  return total_;
}

double DeltaEvaluator::full_cost(std::span<const std::uint8_t> matrix,
                                 std::span<double> object_costs) {
  const Problem& p = problem();
  const std::size_t n = p.objects();
  if (matrix.size() != p.sites() * n)
    throw std::invalid_argument("DeltaEvaluator::full_cost: matrix size mismatch");
  if (object_costs.size() != n)
    throw std::invalid_argument("DeltaEvaluator::full_cost: object_costs size mismatch");
  for (ObjectId k = 0; k < n; ++k)
    object_costs[k] = object_cost_in_matrix(k, matrix);
  return sum_object_costs(object_costs);
}

double DeltaEvaluator::delta_cost(std::span<const std::uint8_t> matrix,
                                  std::span<const ObjectId> changed,
                                  std::span<double> object_costs) {
  const Problem& p = problem();
  const std::size_t n = p.objects();
  if (matrix.size() != p.sites() * n)
    throw std::invalid_argument("DeltaEvaluator::delta_cost: matrix size mismatch");
  if (object_costs.size() != n)
    throw std::invalid_argument("DeltaEvaluator::delta_cost: object_costs size mismatch");
  for (const ObjectId k : changed)
    object_costs[k] = object_cost_in_matrix(k, matrix);
  return sum_object_costs(object_costs);
}

double DeltaEvaluator::object_cost_in_matrix(
    ObjectId k, std::span<const std::uint8_t> matrix) {
  const Problem& p = problem();
  const std::size_t m = p.sites();
  const std::size_t n = p.objects();
  if (k >= n)
    throw std::out_of_range("DeltaEvaluator: object out of range");
  const SiteId sp = p.primary(k);
  scratch_replicas_.clear();
  for (SiteId i = 0; i < m; ++i) {
    if (i == sp || matrix[static_cast<std::size_t>(i) * n + k] != 0)
      scratch_replicas_.push_back(i);
  }
  ++objects_recomputed_;
  return eval_.object_cost_with_replicas(k, scratch_replicas_);
}

double DeltaEvaluator::sum_object_costs(std::span<const double> v) const {
  double total = 0.0;
  for (const double cost : v) total += cost;
  return total;
}

double DeltaEvaluator::full_equivalents() const noexcept {
  const std::size_t n = problem().objects();
  if (n == 0) return 0.0;
  return static_cast<double>(objects_recomputed_) / static_cast<double>(n);
}

}  // namespace drep::core
