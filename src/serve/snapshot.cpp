#include "serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

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
                                 digest_of(nearest_site_),
                                 digest_of(nearest_cost_),
                                 digest_of(costs_),
                                 digest_of(primary_),
                                 digest_of(write_surcharge_)};
  return word_hash(words, sizeof(words));
}

SchemeSnapshot SchemeSnapshot::freeze(const core::ReplicationScheme& scheme,
                                      std::uint64_t generation) {
  DREP_SPAN("serve/freeze");
  const core::Problem& problem = scheme.problem();
  const std::size_t sites = problem.sites();
  const std::size_t objects = problem.objects();
  if (problem.demand_cells() != sites * objects)
    throw std::invalid_argument(
        "SchemeSnapshot::freeze: the problem has partial demand rows; a "
        "snapshot needs every (site, object) cell");

  SchemeSnapshot snapshot;
  snapshot.generation_ = generation;
  snapshot.sites_ = sites;
  snapshot.objects_ = objects;
  snapshot.total_replicas_ = scheme.total_replicas();

  // Every array is filled by appends, never by resize() and overwrite,
  // which would write the table twice. On full rows the scheme's nearest
  // caches are already in cell order k·M + i.
  const auto nearest_sites = scheme.nearest_sites();
  snapshot.nearest_site_.assign(nearest_sites.begin(), nearest_sites.end());
  snapshot.nearest_cost_.assign(scheme.nearest_cost_data(),
                                scheme.nearest_cost_data() + sites * objects);
  snapshot.costs_.reserve(sites * sites);
  for (core::SiteId i = 0; i < sites; ++i) {
    const auto row = problem.costs().row(i);
    snapshot.costs_.insert(snapshot.costs_.end(), row.begin(), row.end());
  }

  snapshot.primary_.reserve(objects);
  snapshot.write_surcharge_.reserve(objects);
  for (core::ObjectId k = 0; k < objects; ++k) {
    const core::SiteId sp = problem.primary(k);
    snapshot.primary_.push_back(sp);
    const auto sp_row = problem.costs().row(sp);
    // Ascending replica order: the same deterministic accumulation order no
    // matter what add/remove history produced the scheme.
    double surcharge = 0.0;
    for (const core::SiteId r : scheme.replicas(k)) surcharge += sp_row[r];
    snapshot.write_surcharge_.push_back(surcharge);
  }

  snapshot.checksum_ = snapshot.compute_checksum();
  return snapshot;
}

double SchemeSnapshot::cost(core::SiteId i, core::SiteId j) const {
  if (i >= sites_ || j >= sites_)
    throw std::out_of_range("SchemeSnapshot: site index out of range");
  return costs_.at(static_cast<std::size_t>(i) * sites_ + j);
}

std::size_t SchemeSnapshot::cell(core::SiteId site,
                                 core::ObjectId object) const {
  if (site >= sites_ || object >= objects_)
    throw std::out_of_range("SchemeSnapshot: site/object index out of range");
  return static_cast<std::size_t>(object) * sites_ + site;
}

void SchemeSnapshot::debug_corrupt(std::size_t cell) {
  if (nearest_cost_.empty())
    throw std::logic_error("SchemeSnapshot::debug_corrupt: empty table");
  nearest_cost_.at(cell % nearest_cost_.size()) += 1.0;
}

}  // namespace drep::serve
