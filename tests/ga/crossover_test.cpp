#include "ga/crossover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace drep::ga {
namespace {

/// Position-wise conservation: each child position holds one of the two
/// parent values and the children are complementary.
void expect_conserved(const Chromosome& pa, const Chromosome& pb,
                      const Chromosome& ca, const Chromosome& cb) {
  ASSERT_EQ(ca.size(), pa.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const bool straight = ca[i] == pa[i] && cb[i] == pb[i];
    const bool swapped = ca[i] == pb[i] && cb[i] == pa[i];
    EXPECT_TRUE(straight || swapped) << "position " << i;
  }
}

TEST(TwoPoint, ConservesGenesAcrossManyDraws) {
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Chromosome pa(37), pb(37);
    for (std::size_t i = 0; i < 37; ++i) {
      pa[i] = rng.bernoulli(0.5);
      pb[i] = rng.bernoulli(0.5);
    }
    Chromosome ca = pa, cb = pb;
    (void)two_point_crossover(ca, cb, rng);
    expect_conserved(pa, pb, ca, cb);
  }
}

TEST(TwoPoint, CutDescriptorMatchesEffect) {
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome pa(20, 0), pb(20, 1);
    Chromosome ca = pa, cb = pb;
    const CrossoverCut cut = two_point_crossover(ca, cb, rng);
    ASSERT_LE(cut.lo, cut.hi);
    ASSERT_LE(cut.hi, 20u);
    for (std::size_t i = 0; i < 20; ++i) {
      const bool inside = i >= cut.lo && i < cut.hi;
      const bool exchanged = cut.middle ? inside : !inside;
      EXPECT_EQ(ca[i], exchanged ? 1 : 0) << "trial " << trial << " pos " << i;
      EXPECT_EQ(cb[i], exchanged ? 0 : 1);
    }
  }
}

TEST(TwoPoint, NeverDrawsADegenerateCut) {
  // lo == hi and {0, size} both leave the pair with the parents' genomes
  // (possibly wholesale-swapped) — a silent no-op crossover. The operator
  // redraws those cuts for any chromosome with a non-degenerate cut (size
  // >= 2), so every returned cut exchanges a strict, non-empty subset.
  util::Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    Chromosome a(5, 0), b(5, 1);
    const CrossoverCut cut = two_point_crossover(a, b, rng);
    EXPECT_NE(cut.lo, cut.hi) << "trial " << trial;
    EXPECT_FALSE(cut.lo == 0 && cut.hi == 5) << "trial " << trial;
  }
}

TEST(TwoPoint, AlwaysMixesFullyDifferingParents) {
  // Complementary parents: a non-degenerate cut means each child must end
  // up holding genes from BOTH parents.
  util::Rng rng(18);
  for (int trial = 0; trial < 500; ++trial) {
    Chromosome a(8, 0), b(8, 1);
    (void)two_point_crossover(a, b, rng);
    int a_ones = 0, b_ones = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      a_ones += a[i];
      b_ones += b[i];
    }
    EXPECT_GT(a_ones, 0) << "trial " << trial;
    EXPECT_LT(a_ones, 8) << "trial " << trial;
    EXPECT_GT(b_ones, 0) << "trial " << trial;
    EXPECT_LT(b_ones, 8) << "trial " << trial;
  }
}

TEST(TwoPoint, SizeOneChromosomesStillWork) {
  // No non-degenerate cut exists for a single gene; the operator must not
  // spin forever and must still conserve genes.
  util::Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    Chromosome a(1, 0), b(1, 1);
    const CrossoverCut cut = two_point_crossover(a, b, rng);
    EXPECT_LE(cut.lo, cut.hi);
    EXPECT_LE(cut.hi, 1u);
    EXPECT_EQ(a[0] + b[0], 1);  // genes conserved
  }
}

TEST(TwoPoint, BothSwapDirectionsOccur) {
  util::Rng rng(3);
  int middle = 0, outer = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome a(10, 0), b(10, 1);
    const CrossoverCut cut = two_point_crossover(a, b, rng);
    (cut.middle ? middle : outer)++;
  }
  EXPECT_GT(middle, 50);
  EXPECT_GT(outer, 50);
}

TEST(OnePoint, SwapsPrefixOrSuffix) {
  util::Rng rng(4);
  int prefix = 0, suffix = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Chromosome a(12, 0), b(12, 1);
    const CrossoverCut cut = one_point_crossover(a, b, rng);
    EXPECT_TRUE(cut.middle);
    if (cut.lo == 0) {
      ++prefix;
      for (std::size_t i = 0; i < cut.hi; ++i) EXPECT_EQ(a[i], 1);
      for (std::size_t i = cut.hi; i < 12; ++i) EXPECT_EQ(a[i], 0);
    } else {
      ++suffix;
      EXPECT_EQ(cut.hi, 12u);
      for (std::size_t i = 0; i < cut.lo; ++i) EXPECT_EQ(a[i], 0);
      for (std::size_t i = cut.lo; i < 12; ++i) EXPECT_EQ(a[i], 1);
    }
  }
  EXPECT_GT(prefix, 50);
  EXPECT_GT(suffix, 50);
}

TEST(Uniform, MixesRoughlyHalf) {
  util::Rng rng(5);
  Chromosome a(10000, 0), b(10000, 1);
  (void)uniform_crossover(a, b, rng);
  EXPECT_NEAR(static_cast<double>(count_ones(a)), 5000.0, 300.0);
  // Complementarity.
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NE(a[i], b[i]);
}

TEST(Crossover, Validation) {
  util::Rng rng(6);
  Chromosome a(5, 0), b(6, 0), empty_a, empty_b;
  EXPECT_THROW((void)two_point_crossover(a, b, rng), std::invalid_argument);
  EXPECT_THROW((void)one_point_crossover(a, b, rng), std::invalid_argument);
  EXPECT_THROW((void)uniform_crossover(a, b, rng), std::invalid_argument);
  EXPECT_THROW((void)two_point_crossover(empty_a, empty_b, rng),
               std::invalid_argument);
}

/// The per-position reference differing_columns replaces: one modulo per
/// gene.
std::vector<std::size_t> modulo_columns(const Chromosome& a,
                                        const Chromosome& b,
                                        std::size_t stride) {
  std::vector<std::uint8_t> hit(std::min(stride, a.size()), 0);
  for (std::size_t pos = 0; pos < a.size(); ++pos) {
    if (a[pos] != b[pos]) hit[pos % stride] = 1;
  }
  std::vector<std::size_t> columns;
  for (std::size_t c = 0; c < hit.size(); ++c) {
    if (hit[c] != 0) columns.push_back(c);
  }
  return columns;
}

TEST(DifferingColumns, EqualsModuloReference) {
  util::Rng rng(7);
  // Strides that divide the length, strides that leave a partial last row,
  // and strides longer than the whole string.
  for (const std::size_t length : {1, 7, 8, 17, 64, 200, 1000}) {
    for (const std::size_t stride : {1, 2, 3, 8, 13, 17, 200, 1001, 5000}) {
      for (int trial = 0; trial < 10; ++trial) {
        Chromosome a(length), b(length);
        for (auto& gene : a) gene = static_cast<std::uint8_t>(rng.index(3));
        b = a;
        // Sparse and dense differences, and bytes other than 0 and 1.
        const double rate = trial < 5 ? 0.01 : 0.3;
        for (auto& gene : b) {
          if (rng.bernoulli(rate))
            gene = static_cast<std::uint8_t>(gene + 1 + rng.index(254));
        }
        const auto columns = differing_columns(a, b, stride);
        EXPECT_EQ(columns, modulo_columns(a, b, stride))
            << "length " << length << " stride " << stride;
        EXPECT_TRUE(std::is_sorted(columns.begin(), columns.end()));
      }
    }
  }
}

TEST(DifferingColumns, IdenticalStringsAndValidation) {
  const Chromosome a(30, 1);
  EXPECT_TRUE(differing_columns(a, a, 7).empty());
  const Chromosome shorter(29, 1);
  EXPECT_THROW((void)differing_columns(a, shorter, 7), std::invalid_argument);
  EXPECT_THROW((void)differing_columns(a, a, 0), std::invalid_argument);
}

}  // namespace
}  // namespace drep::ga
