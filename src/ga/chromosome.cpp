#include "ga/chromosome.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace drep::ga {

std::size_t count_ones(std::span<const std::uint8_t> genes) {
  std::size_t ones = 0;
  for (std::uint8_t g : genes) ones += (g != 0);
  return ones;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("hamming_distance: length mismatch");
  std::size_t distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    distance += ((a[i] != 0) != (b[i] != 0));
  return distance;
}

double gene_load(std::span<const std::uint8_t> row,
                 std::span<const double> sizes) {
  if (sizes.size() < row.size())
    throw std::invalid_argument("gene_load: fewer sizes than genes");
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  double load = 0.0;
  std::size_t k = 0;
  for (; k + 8 <= row.size(); k += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, row.data() + k, sizeof word);
    // Bit 7 of every nonzero byte: adding 0x7f carries into bit 7 from the
    // low seven bits, the OR keeps bit 7 itself, and no byte carries over.
    std::uint64_t nonzero = (((word & kLow7) + kLow7) | word) & kHigh;
    while (nonzero != 0) {
      // Lowest address first, whichever end of the word it loaded into.
      std::size_t byte = 0;
      if constexpr (std::endian::native == std::endian::little) {
        byte = static_cast<std::size_t>(std::countr_zero(nonzero)) / 8;
        nonzero &= nonzero - 1;
      } else {
        const int bit = 63 - std::countl_zero(nonzero);
        byte = 7 - static_cast<std::size_t>(bit) / 8;
        nonzero &= ~(std::uint64_t{1} << bit);
      }
      load += sizes[k + byte];
    }
  }
  for (; k < row.size(); ++k) {
    if (row[k] != 0) load += sizes[k];
  }
  return load;
}

void swap_range(Chromosome& a, Chromosome& b, std::size_t begin,
                std::size_t end) {
  if (a.size() != b.size())
    throw std::invalid_argument("swap_range: length mismatch");
  if (begin > end || end > a.size())
    throw std::invalid_argument("swap_range: bad window");
  for (std::size_t i = begin; i < end; ++i) std::swap(a[i], b[i]);
}

void for_each_mutation_site(std::size_t length, double rate, util::Rng& rng,
                            const std::function<void(std::size_t)>& callback) {
  if (rate <= 0.0 || length == 0) return;
  if (rate >= 1.0) {
    for (std::size_t i = 0; i < length; ++i) callback(i);
    return;
  }
  // Geometric gaps: the index of the next selected gene after i is
  // i + 1 + floor(log(U)/log(1-p)).
  const double denom = std::log1p(-rate);
  std::size_t position = 0;
  for (;;) {
    double u = rng.uniform01();
    while (u <= 0.0) u = rng.uniform01();
    const double skip = std::floor(std::log(u) / denom);
    if (skip >= static_cast<double>(length - position)) return;
    position += static_cast<std::size_t>(skip);
    callback(position);
    ++position;
    if (position >= length) return;
  }
}

}  // namespace drep::ga
