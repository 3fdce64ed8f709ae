#include "ga/chromosome.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

namespace drep::ga {
namespace {

TEST(CountOnes, Basic) {
  EXPECT_EQ(count_ones(Chromosome{}), 0u);
  EXPECT_EQ(count_ones(Chromosome{0, 0, 0}), 0u);
  EXPECT_EQ(count_ones(Chromosome{1, 0, 1, 1}), 3u);
  // Any non-zero byte counts as a set gene.
  EXPECT_EQ(count_ones(Chromosome{2, 0, 255}), 2u);
}

TEST(HammingDistance, BasicAndValidation) {
  EXPECT_EQ(hamming_distance(Chromosome{1, 0, 1}, Chromosome{1, 1, 0}), 2u);
  EXPECT_EQ(hamming_distance(Chromosome{1, 0}, Chromosome{1, 0}), 0u);
  EXPECT_THROW((void)hamming_distance(Chromosome{1}, Chromosome{1, 0}),
               std::invalid_argument);
}

/// The byte loop gene_load replaces: one addition per nonzero gene, in
/// ascending gene order.
double byte_loop_load(std::span<const std::uint8_t> row,
                      std::span<const double> sizes) {
  double load = 0.0;
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (row[k] != 0) load += sizes[k];
  }
  return load;
}

TEST(GeneLoad, EqualsByteLoopBitForBit) {
  util::Rng rng(11);
  for (std::size_t length : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                             std::size_t{7}, std::size_t{8}, std::size_t{9},
                             std::size_t{15}, std::size_t{16}, std::size_t{17},
                             std::size_t{200}}) {
    // Sizes across nine decades, so the order of the additions shows in
    // the last bits.
    std::vector<double> sizes(length);
    for (double& size : sizes)
      size = rng.uniform01() * std::pow(10.0, rng.uniform_real(-4.0, 5.0));
    for (int trial = 0; trial < 40; ++trial) {
      // Any nonzero byte counts as a set gene, not only 1; the row starts
      // at every offset of a word.
      const std::size_t offset = static_cast<std::size_t>(trial) % 8;
      std::vector<std::uint8_t> buffer(offset + length);
      const double density = 0.1 * static_cast<double>(trial % 10);
      for (auto& gene : buffer)
        gene = rng.bernoulli(density)
                   ? static_cast<std::uint8_t>(1 + rng.index(255))
                   : 0;
      const std::span<const std::uint8_t> row(buffer.data() + offset, length);
      EXPECT_EQ(gene_load(row, sizes), byte_loop_load(row, sizes))
          << "length " << length << " trial " << trial;
    }
  }
}

TEST(GeneLoad, RejectsTooFewSizes) {
  const std::vector<std::uint8_t> row(9, 1);
  const std::vector<double> sizes(8, 1.0);
  EXPECT_THROW((void)gene_load(row, sizes), std::invalid_argument);
}

TEST(SwapRange, SwapsWindowOnly) {
  Chromosome a{1, 1, 1, 1, 1};
  Chromosome b{0, 0, 0, 0, 0};
  swap_range(a, b, 1, 3);
  EXPECT_EQ(a, (Chromosome{1, 0, 0, 1, 1}));
  EXPECT_EQ(b, (Chromosome{0, 1, 1, 0, 0}));
}

TEST(SwapRange, EmptyWindowIsNoOp) {
  Chromosome a{1, 0}, b{0, 1};
  swap_range(a, b, 1, 1);
  EXPECT_EQ(a, (Chromosome{1, 0}));
}

TEST(SwapRange, Validation) {
  Chromosome a{1, 0}, b{0, 1}, c{1};
  EXPECT_THROW(swap_range(a, c, 0, 1), std::invalid_argument);
  EXPECT_THROW(swap_range(a, b, 2, 1), std::invalid_argument);
  EXPECT_THROW(swap_range(a, b, 0, 3), std::invalid_argument);
}

TEST(MutationSites, RateZeroSelectsNothing) {
  util::Rng rng(1);
  int calls = 0;
  for_each_mutation_site(1000, 0.0, rng, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(MutationSites, RateOneSelectsEverythingInOrder) {
  util::Rng rng(2);
  std::vector<std::size_t> positions;
  for_each_mutation_site(10, 1.0, rng,
                         [&](std::size_t p) { positions.push_back(p); });
  ASSERT_EQ(positions.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(positions[i], i);
}

TEST(MutationSites, PositionsAreStrictlyIncreasingAndInRange) {
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t last = 0;
    bool first = true;
    for_each_mutation_site(500, 0.05, rng, [&](std::size_t p) {
      EXPECT_LT(p, 500u);
      if (!first) EXPECT_GT(p, last);
      last = p;
      first = false;
    });
  }
}

TEST(MutationSites, RateMatchesExpectation) {
  util::Rng rng(4);
  const double rate = 0.01;
  const std::size_t length = 10000;
  std::size_t total = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial)
    for_each_mutation_site(length, rate, rng, [&](std::size_t) { ++total; });
  const double per_trial = static_cast<double>(total) / trials;
  EXPECT_NEAR(per_trial, rate * static_cast<double>(length), 10.0);
}

TEST(MutationSites, EachPositionEquallyLikely) {
  util::Rng rng(5);
  std::vector<int> hits(20, 0);
  for (int trial = 0; trial < 20000; ++trial)
    for_each_mutation_site(20, 0.1, rng, [&](std::size_t p) { hits[p]++; });
  // Expected ~2000 hits each.
  for (int h : hits) EXPECT_NEAR(h, 2000, 300);
}

TEST(MutationSites, ZeroLengthIsNoOp) {
  util::Rng rng(6);
  int calls = 0;
  for_each_mutation_site(0, 0.5, rng, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace drep::ga
