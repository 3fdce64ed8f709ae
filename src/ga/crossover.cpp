#include "ga/crossover.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace drep::ga {

namespace {
void require_compatible(const Chromosome& a, const Chromosome& b,
                        const char* what) {
  if (a.size() != b.size())
    throw std::invalid_argument(std::string(what) + ": length mismatch");
  if (a.empty())
    throw std::invalid_argument(std::string(what) + ": empty chromosomes");
}
}  // namespace

CrossoverCut two_point_crossover(Chromosome& a, Chromosome& b,
                                 util::Rng& rng) {
  require_compatible(a, b, "two_point_crossover");
  const std::size_t size = a.size();
  std::size_t lo = rng.index(size + 1);
  std::size_t hi = rng.index(size + 1);
  if (lo > hi) std::swap(lo, hi);
  // Redraw degenerate cuts: lo == hi swaps nothing (or, in outside mode,
  // whole chromosomes) and {0, size} is the same two cases mirrored —
  // either way the pair leaves with the parents' genomes and the crossover
  // is a silent no-op. Size-1 chromosomes have no non-degenerate cut, so
  // they keep the first draw.
  while (size >= 2 && (lo == hi || (lo == 0 && hi == size))) {
    lo = rng.index(size + 1);
    hi = rng.index(size + 1);
    if (lo > hi) std::swap(lo, hi);
  }
  CrossoverCut cut{lo, hi, rng.bernoulli(0.5)};
  if (cut.middle) {
    swap_range(a, b, cut.lo, cut.hi);
  } else {
    swap_range(a, b, 0, cut.lo);
    swap_range(a, b, cut.hi, size);
  }
  return cut;
}

CrossoverCut one_point_crossover(Chromosome& a, Chromosome& b,
                                 util::Rng& rng) {
  require_compatible(a, b, "one_point_crossover");
  const std::size_t size = a.size();
  const std::size_t point = rng.index(size + 1);
  const bool left = rng.bernoulli(0.5);
  if (left) {
    swap_range(a, b, 0, point);
    return CrossoverCut{0, point, true};
  }
  swap_range(a, b, point, size);
  return CrossoverCut{point, size, true};
}

CrossoverCut uniform_crossover(Chromosome& a, Chromosome& b, util::Rng& rng) {
  require_compatible(a, b, "uniform_crossover");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rng.bernoulli(0.5)) std::swap(a[i], b[i]);
  }
  return CrossoverCut{0, a.size(), true};
}

std::vector<std::size_t> differing_columns(std::span<const std::uint8_t> a,
                                           std::span<const std::uint8_t> b,
                                           std::size_t stride) {
  if (a.size() != b.size())
    throw std::invalid_argument("differing_columns: length mismatch");
  if (stride == 0)
    throw std::invalid_argument("differing_columns: zero stride");
  std::vector<std::uint8_t> hit(std::min(stride, a.size()), 0);
  // Row by row, so column c of every row is byte c of that row: the compare
  // loop needs no division and vectorizes.
  for (std::size_t row = 0; row < a.size(); row += stride) {
    const std::size_t width = std::min(stride, a.size() - row);
    const std::uint8_t* row_a = a.data() + row;
    const std::uint8_t* row_b = b.data() + row;
    for (std::size_t c = 0; c < width; ++c)
      hit[c] |= static_cast<std::uint8_t>(row_a[c] != row_b[c]);
  }
  std::vector<std::size_t> columns;
  for (std::size_t c = 0; c < hit.size(); ++c) {
    if (hit[c] != 0) columns.push_back(c);
  }
  return columns;
}

}  // namespace drep::ga
