#include "serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/span.hpp"

namespace drep::serve {

namespace {

constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ULL;

/// One lane step: a bijection in h and in w. The multiply leaves a change
/// in the top bit where it is; the rotation moves it down, where the next
/// multiply spreads it.
constexpr std::uint64_t step(std::uint64_t h, std::uint64_t w) noexcept {
  return std::rotl((h ^ w) * kOdd, 29);
}

template <typename T>
std::uint64_t digest_of(const std::vector<T>& values) noexcept {
  return word_hash(values.data(), values.size() * sizeof(T));
}

}  // namespace

std::uint64_t word_hash(const void* data, std::size_t size) noexcept {
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  constexpr std::size_t kLanes = kWordHashStride / kWord;
  // Distinct starting states (hex digits of pi).
  std::array<std::uint64_t, kLanes> lanes = {
      0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
      0x082efa98ec4e6c89ULL};
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::size_t whole = size - size % kWordHashStride;
  for (std::size_t at = 0; at < whole; at += kWordHashStride)
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes + at + l * kWord, kWord);
      lanes[l] = step(lanes[l], word);
    }
  // The tail: its words in lane order, the last one zero-padded (the byte
  // count folded below tells padding from data).
  for (std::size_t at = whole, l = 0; at < size; at += kWord, ++l) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + at, std::min(kWord, size - at));
    lanes[l] = step(lanes[l], word);
  }
  std::uint64_t h = step(kOdd, size);
  for (const std::uint64_t lane : lanes) h = step(h, lane);
  // Bijective finaliser, so every bit of every lane reaches every bit.
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return h;
}

std::uint64_t SchemeSnapshot::compute_checksum() const noexcept {
  // The header, then one digest per array in field order.
  const std::uint64_t words[] = {generation_,
                                 sites_,
                                 objects_,
                                 full_rows_ ? 1u : 0u,
                                 digest_of(nearest_site_),
                                 digest_of(nearest_cost_),
                                 digest_of(primary_cost_),
                                 digest_of(primary_),
                                 digest_of(write_surcharge_),
                                 digest_of(demand_offsets_),
                                 digest_of(demand_sites_)};
  return word_hash(words, sizeof(words));
}

SchemeSnapshot SchemeSnapshot::freeze(const core::ReplicationScheme& scheme,
                                      std::uint64_t generation) {
  DREP_SPAN("serve/freeze");
  const core::Problem& problem = scheme.problem();
  const std::size_t objects = problem.objects();
  const std::size_t cells = problem.demand_cells();

  SchemeSnapshot snapshot;
  snapshot.generation_ = generation;
  snapshot.sites_ = problem.sites();
  snapshot.objects_ = objects;
  snapshot.total_replicas_ = scheme.total_replicas();
  snapshot.full_rows_ = cells == problem.sites() * objects;

  // Every array is filled by appends, never by resize() and overwrite,
  // which would write the table twice. The nearest entries are the
  // scheme's demand-cell cache, in the same CSR order.
  const auto nearest_sites = scheme.nearest_sites();
  snapshot.nearest_site_.assign(nearest_sites.begin(), nearest_sites.end());
  snapshot.nearest_cost_.assign(scheme.nearest_cost_data(),
                                scheme.nearest_cost_data() + cells);

  snapshot.primary_cost_.reserve(cells);
  if (!snapshot.full_rows_) snapshot.demand_sites_.reserve(cells);
  snapshot.primary_.reserve(objects);
  snapshot.write_surcharge_.reserve(objects);
  snapshot.demand_offsets_.reserve(objects + 1);
  for (core::ObjectId k = 0; k < objects; ++k) {
    const core::SiteId sp = problem.primary(k);
    snapshot.primary_.push_back(sp);
    const auto sp_row = problem.costs().row(sp);  // symmetric C
    // Ascending replica order: the same deterministic accumulation order no
    // matter what add/remove history produced the scheme.
    double surcharge = 0.0;
    for (const core::SiteId r : scheme.replicas(k)) surcharge += sp_row[r];
    snapshot.write_surcharge_.push_back(surcharge);
    snapshot.demand_offsets_.push_back(problem.demand_begin(k));

    const auto sites = problem.demand_sites(k);
    std::vector<double>& primary_cost = snapshot.primary_cost_;
    if (sites.size() == snapshot.sites_) {
      // A full row: C(i, SP_k) for i = 0..M-1.
      primary_cost.insert(primary_cost.end(), sp_row.begin(), sp_row.end());
    } else {
      for (const core::SiteId i : sites) primary_cost.push_back(sp_row[i]);
    }
    std::vector<core::SiteId>& demand_sites = snapshot.demand_sites_;
    if (!snapshot.full_rows_)
      demand_sites.insert(demand_sites.end(), sites.begin(), sites.end());
  }
  snapshot.demand_offsets_.push_back(cells);

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
