#include "core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace drep::core {

namespace {
void require_count(double count, const char* what) {
  if (count < 0.0 || !std::isfinite(count))
    throw std::invalid_argument(std::string("Problem::") + what +
                                ": counts must be finite and non-negative");
}
}  // namespace

Problem::Problem(net::CostMatrix costs, std::vector<double> object_sizes,
                 std::vector<SiteId> primaries,
                 std::vector<double> capacities)
    : costs_(std::move(costs)),
      sizes_(std::move(object_sizes)),
      primaries_(std::move(primaries)),
      capacities_(std::move(capacities)) {
  check_components();
  const std::size_t m = sites();
  const std::size_t n = objects();
  offsets_.resize(n + 1);
  for (std::size_t k = 0; k <= n; ++k) offsets_[k] = k * m;
  reads_.assign(m * n, 0.0);
  writes_.assign(m * n, 0.0);
}

Problem::Problem(net::CostMatrix costs, std::vector<double> object_sizes,
                 std::vector<SiteId> primaries, std::vector<double> capacities,
                 const DemandRowFn& row)
    : costs_(std::move(costs)),
      sizes_(std::move(object_sizes)),
      primaries_(std::move(primaries)),
      capacities_(std::move(capacities)) {
  check_components();
  offsets_.assign(objects() + 1, 0);
  for (ObjectId k = 0; k < objects(); ++k) {
    bool first = true;
    for (const DemandEntry& e : row(k)) {
      if (e.site >= sites())
        throw std::invalid_argument("Problem: demand site out of range");
      if (!first && e.site <= cell_sites_.back())
        throw std::invalid_argument(
            "Problem: demand cells must be strictly ascending by site id");
      require_count(e.reads, "demand row");
      require_count(e.writes, "demand row");
      first = false;
      cell_sites_.push_back(e.site);
      reads_.push_back(e.reads);
      writes_.push_back(e.writes);
      total_reads_[k] += e.reads;
      total_writes_[k] += e.writes;
    }
    offsets_[static_cast<std::size_t>(k) + 1] = cell_sites_.size();
  }
}

void Problem::check_components() {
  if (costs_.sites() != capacities_.size())
    throw std::invalid_argument("Problem: cost matrix / capacity size mismatch");
  if (sizes_.size() != primaries_.size())
    throw std::invalid_argument("Problem: sizes / primaries size mismatch");
  for (double size : sizes_) {
    if (!(size > 0.0) || !std::isfinite(size))
      throw std::invalid_argument("Problem: object sizes must be positive");
  }
  for (SiteId site : primaries_) {
    if (site >= sites())
      throw std::invalid_argument("Problem: primary site out of range");
  }
  for (double cap : capacities_) {
    if (cap < 0.0 || !std::isfinite(cap))
      throw std::invalid_argument("Problem: capacities must be non-negative");
  }
  total_reads_.assign(objects(), 0.0);
  total_writes_.assign(objects(), 0.0);
  total_size_ = std::accumulate(sizes_.begin(), sizes_.end(), 0.0);
  all_sites_.resize(sites());
  std::iota(all_sites_.begin(), all_sites_.end(), SiteId{0});
}

void Problem::throw_out_of_range() {
  throw std::out_of_range("Problem: site/object index out of range");
}

std::size_t Problem::find_in_row(SiteId i, std::size_t begin,
                                 std::size_t end) const {
  const SiteId* first = cell_sites_.data() + begin;
  const SiteId* last = cell_sites_.data() + end;
  const SiteId* it = std::lower_bound(first, last, i);
  if (it == last || *it != i) return kAbsent;
  return static_cast<std::size_t>(it - cell_sites_.data());
}

void Problem::throw_absent(SiteId i, ObjectId k, const char* what) {
  throw std::invalid_argument(std::string("Problem::") + what + ": cell (" +
                              std::to_string(i) + ", " + std::to_string(k) +
                              ") is absent from a partial demand row");
}

void Problem::set_reads(SiteId i, ObjectId k, double count) {
  require_count(count, "set_reads");
  const std::size_t z = stored_cell(i, k, "set_reads");
  total_reads_[k] += count - reads_[z];
  reads_[z] = count;
}

void Problem::set_writes(SiteId i, ObjectId k, double count) {
  require_count(count, "set_writes");
  const std::size_t z = stored_cell(i, k, "set_writes");
  total_writes_[k] += count - writes_[z];
  writes_[z] = count;
}

void Problem::add_reads(SiteId i, ObjectId k, double delta) {
  const std::size_t z = stored_cell(i, k, "add_reads");
  const double count = reads_[z] + delta;
  require_count(count, "add_reads");
  total_reads_[k] += count - reads_[z];
  reads_[z] = count;
}

void Problem::add_writes(SiteId i, ObjectId k, double delta) {
  const std::size_t z = stored_cell(i, k, "add_writes");
  const double count = writes_[z] + delta;
  require_count(count, "add_writes");
  total_writes_[k] += count - writes_[z];
  writes_[z] = count;
}

void Problem::clear_demand() {
  std::fill(reads_.begin(), reads_.end(), 0.0);
  std::fill(writes_.begin(), writes_.end(), 0.0);
  std::fill(total_reads_.begin(), total_reads_.end(), 0.0);
  std::fill(total_writes_.begin(), total_writes_.end(), 0.0);
}

double Problem::total_requests() const {
  double total = 0.0;
  for (ObjectId k = 0; k < objects(); ++k)
    total += total_reads_[k] + total_writes_[k];
  return total;
}

void Problem::validate() const {
  if (!costs_.is_metric())
    throw std::invalid_argument("Problem: cost matrix is not a metric");
  // Every site must be able to hold the primary copies pinned to it; the
  // primary-copy constraint X[SP_k][k] = 1 is otherwise unsatisfiable.
  std::vector<double> pinned(sites(), 0.0);
  for (ObjectId k = 0; k < objects(); ++k) pinned[primaries_[k]] += sizes_[k];
  for (SiteId i = 0; i < sites(); ++i) {
    if (pinned[i] > capacities_[i])
      throw std::invalid_argument(
          "Problem: site " + std::to_string(i) +
          " cannot store its primary copies (" + std::to_string(pinned[i]) +
          " > " + std::to_string(capacities_[i]) + ")");
  }
}

Problem Problem::materialize() const {
  Problem full(costs_, sizes_, primaries_, capacities_);
  for (ObjectId k = 0; k < objects(); ++k) {
    const auto row = demand_sites(k);
    const std::size_t begin = offsets_[k];
    for (std::size_t j = 0; j < row.size(); ++j) {
      const std::size_t cell = full.offsets_[k] + row[j];
      full.reads_[cell] = reads_[begin + j];
      full.writes_[cell] = writes_[begin + j];
    }
  }
  full.total_reads_ = total_reads_;
  full.total_writes_ = total_writes_;
  return full;
}

}  // namespace drep::core
