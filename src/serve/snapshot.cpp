#include "serve/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace drep::serve {

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

template <typename T>
std::uint64_t fnv_vector(const std::vector<T>& values, std::uint64_t hash) {
  return fnv1a(values.data(), values.size() * sizeof(T), hash);
}

}  // namespace

std::uint64_t SchemeSnapshot::compute_checksum() const noexcept {
  std::uint64_t hash = fnv1a(&generation_, sizeof(generation_));
  const std::uint64_t header[3] = {sites_, objects_, full_rows_ ? 1u : 0u};
  hash = fnv1a(header, sizeof(header), hash);
  hash = fnv_vector(nearest_site_, hash);
  hash = fnv_vector(nearest_cost_, hash);
  hash = fnv_vector(primary_cost_, hash);
  hash = fnv_vector(primary_, hash);
  hash = fnv_vector(write_surcharge_, hash);
  hash = fnv_vector(demand_offsets_, hash);
  hash = fnv_vector(demand_sites_, hash);
  return hash;
}

SchemeSnapshot SchemeSnapshot::freeze(const core::ReplicationScheme& scheme,
                                      std::uint64_t generation) {
  const core::Problem& problem = scheme.problem();
  const std::size_t objects = problem.objects();
  const std::size_t cells = problem.demand_cells();

  SchemeSnapshot snapshot;
  snapshot.generation_ = generation;
  snapshot.sites_ = problem.sites();
  snapshot.objects_ = objects;
  snapshot.total_replicas_ = scheme.total_replicas();
  snapshot.full_rows_ = cells == problem.sites() * objects;

  snapshot.primary_.resize(objects);
  snapshot.write_surcharge_.resize(objects);
  snapshot.demand_offsets_.resize(objects + 1);
  if (!snapshot.full_rows_) snapshot.demand_sites_.resize(cells);
  snapshot.nearest_site_.resize(cells);
  snapshot.nearest_cost_.resize(cells);
  snapshot.primary_cost_.resize(cells);
  for (core::ObjectId k = 0; k < objects; ++k) {
    const core::SiteId sp = problem.primary(k);
    snapshot.primary_[k] = sp;
    // Ascending replica order: the same deterministic accumulation order no
    // matter what add/remove history produced the scheme.
    double surcharge = 0.0;
    for (const core::SiteId r : scheme.replicas(k))
      surcharge += problem.cost(sp, r);
    snapshot.write_surcharge_[k] = surcharge;

    const std::size_t begin = problem.demand_begin(k);
    snapshot.demand_offsets_[k] = begin;
    const auto sp_row = problem.costs().row(sp);  // symmetric C
    const auto sites = problem.demand_sites(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      const std::size_t z = begin + j;
      if (!snapshot.full_rows_) snapshot.demand_sites_[z] = sites[j];
      snapshot.nearest_site_[z] = scheme.nearest_site_at(z);
      snapshot.nearest_cost_[z] = scheme.nearest_cost_at(z);
      snapshot.primary_cost_[z] = sp_row[sites[j]];
    }
  }
  snapshot.demand_offsets_[objects] = cells;

  snapshot.checksum_ = snapshot.compute_checksum();
  return snapshot;
}

core::SiteId SchemeSnapshot::demand_site(std::size_t z) const {
  if (!full_rows_) return demand_sites_.at(z);
  if (z >= demand_cells())
    throw std::out_of_range("SchemeSnapshot: demand cell out of range");
  return static_cast<core::SiteId>(z % sites_);
}

std::size_t SchemeSnapshot::cell(core::SiteId site,
                                 core::ObjectId object) const {
  if (site >= sites_ || object >= objects_)
    throw std::out_of_range("SchemeSnapshot: site/object index out of range");
  if (full_rows_) return static_cast<std::size_t>(object) * sites_ + site;
  const std::size_t begin = demand_offsets_[object];
  const std::size_t end = demand_offsets_[static_cast<std::size_t>(object) + 1];
  const auto first = demand_sites_.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = demand_sites_.begin() + static_cast<std::ptrdiff_t>(end);
  const auto it = std::lower_bound(first, last, site);
  if (it == last || *it != site)
    throw std::out_of_range("SchemeSnapshot: cell (" + std::to_string(site) +
                            ", " + std::to_string(object) +
                            ") was not frozen (absent from its demand row)");
  return static_cast<std::size_t>(it - demand_sites_.begin());
}

void SchemeSnapshot::debug_corrupt(std::size_t cell) {
  if (nearest_cost_.empty())
    throw std::logic_error("SchemeSnapshot::debug_corrupt: empty table");
  nearest_cost_.at(cell % nearest_cost_.size()) += 1.0;
}

}  // namespace drep::serve
