// Property/differential harness for delta evaluation on core::CostEvaluator:
// a V_k vector filled by full_cost and kept current by delta_cost, after ANY
// sequence of bit flips, gene (row) exchanges, restarts and refreshes, must
// give the total of a fresh CostEvaluator::total_cost of the same matrix.
// The evaluator is designed to be bit-for-bit exact (ascending replica
// lists, one per-object kernel, object-order re-summation), so most checks
// here are exact; the 1e-9 relative ones carry a wide safety margin. The
// suite keeps the name of the DeltaEvaluator class CostEvaluator absorbed.
#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "testing/builders.hpp"

namespace drep::core {
namespace {

void expect_rel_near(double expected, double actual, double rel = 1e-9) {
  const double scale = std::max(1.0, std::abs(expected));
  EXPECT_NEAR(expected, actual, rel * scale);
}

/// A random matrix with primary bits set and every other cell i.i.d.
std::vector<std::uint8_t> random_matrix(const Problem& p, util::Rng& rng,
                                        double density = 0.3) {
  std::vector<std::uint8_t> matrix(p.sites() * p.objects(), 0);
  for (std::size_t cell = 0; cell < matrix.size(); ++cell)
    matrix[cell] = rng.bernoulli(density) ? 1 : 0;
  for (ObjectId k = 0; k < p.objects(); ++k)
    matrix[static_cast<std::size_t>(p.primary(k)) * p.objects() + k] = 1;
  return matrix;
}

/// A random non-primary cell of the matrix.
std::pair<SiteId, ObjectId> random_free_cell(const Problem& p, util::Rng& rng) {
  for (;;) {
    const auto i = static_cast<SiteId>(rng.index(p.sites()));
    const auto k = static_cast<ObjectId>(rng.index(p.objects()));
    if (p.primary(k) != i) return {i, k};
  }
}

std::uint8_t& cell(const Problem& p, std::vector<std::uint8_t>& matrix,
                   SiteId i, ObjectId k) {
  return matrix[static_cast<std::size_t>(i) * p.objects() + k];
}

/// Flips bit (i, k) and re-derives V_k; returns the new total.
double flip(CostEvaluator& eval, std::vector<std::uint8_t>& matrix,
            std::vector<double>& v, SiteId i, ObjectId k) {
  std::uint8_t& bit = cell(eval.problem(), matrix, i, k);
  bit = bit != 0 ? 0 : 1;
  const ObjectId changed[] = {k};
  return eval.delta_cost(matrix, changed, v);
}

/// The total after flipping bit (i, k), computed as D - V_k + V_k' with the
/// matrix left as it was (AGRA's exact-ΔD probe).
double peek(CostEvaluator& eval, std::vector<std::uint8_t>& matrix,
            const std::vector<double>& v, double total, SiteId i,
            ObjectId k) {
  std::uint8_t& bit = cell(eval.problem(), matrix, i, k);
  const std::uint8_t held = bit;
  bit = held != 0 ? 0 : 1;
  const double peeked = total - v[k] + eval.column_cost(matrix, k);
  bit = held;
  return peeked;
}

TEST(DeltaEvaluator, RandomFlipSequencesMatchFullRecompute) {
  // 25 instances × 60 flips = 1500 randomized steps, each checked against a
  // fresh full evaluation.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed * 977);
    const std::size_t sites = 4 + rng.index(10);
    const std::size_t objects = 3 + rng.index(13);
    const Problem p = testing::small_random_problem(seed, sites, objects);
    CostEvaluator full(p);
    CostEvaluator delta(p);

    auto matrix = random_matrix(p, rng);
    std::vector<double> v(p.objects(), 0.0);
    double total = delta.full_cost(matrix, v);
    expect_rel_near(full.total_cost(matrix), total);

    for (int step = 0; step < 60; ++step) {
      const auto [i, k] = random_free_cell(p, rng);
      const double peeked = peek(delta, matrix, v, total, i, k);
      total = flip(delta, matrix, v, i, k);
      const double fresh = full.total_cost(matrix);
      expect_rel_near(fresh, total);
      expect_rel_near(fresh, peeked);
    }
  }
}

TEST(DeltaEvaluator, FlipTotalsAreBitExact) {
  // Stronger than the 1e-9 contract: the design promises bit-for-bit
  // equality with the full evaluation.
  const Problem p = testing::small_random_problem(7, 10, 12);
  util::Rng rng(71);
  CostEvaluator full(p);
  CostEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  (void)delta.full_cost(matrix, v);
  for (int step = 0; step < 200; ++step) {
    const auto [i, k] = random_free_cell(p, rng);
    const double total = flip(delta, matrix, v, i, k);
    ASSERT_EQ(full.total_cost(matrix), total) << "drift after step " << step;
  }
}

TEST(DeltaEvaluator, PerObjectCostsMatchMaskEvaluation) {
  const Problem p = testing::small_random_problem(3, 8, 9);
  util::Rng rng(31);
  CostEvaluator delta(p);
  CostEvaluator full(p);
  auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  (void)delta.full_cost(matrix, v);
  for (int step = 0; step < 40; ++step) {
    const auto [i, k] = random_free_cell(p, rng);
    (void)flip(delta, matrix, v, i, k);
  }
  std::vector<std::uint8_t> mask(p.sites(), 0);
  for (ObjectId k = 0; k < p.objects(); ++k) {
    for (SiteId i = 0; i < p.sites(); ++i) mask[i] = cell(p, matrix, i, k);
    EXPECT_EQ(full.object_cost(k, mask), v[k]);
    EXPECT_EQ(full.column_cost(matrix, k), v[k]);
  }
}

TEST(DeltaEvaluator, RebaseMidSequenceAdoptsNewBaseline) {
  // full_cost of a different matrix restarts the V_k cache; delta_cost
  // then continues from the new baseline.
  const Problem p = testing::small_random_problem(11, 9, 11);
  util::Rng rng(113);
  CostEvaluator full(p);
  CostEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  (void)delta.full_cost(matrix, v);
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 15; ++step) {
      const auto [i, k] = random_free_cell(p, rng);
      const double total = flip(delta, matrix, v, i, k);
      ASSERT_EQ(full.total_cost(matrix), total);
    }
    // Adopt a completely different baseline and keep flipping.
    matrix = random_matrix(p, rng, 0.2 + 0.1 * round);
    const double rebased = delta.full_cost(matrix, v);
    ASSERT_EQ(full.total_cost(matrix), rebased);
  }
}

TEST(DeltaEvaluator, GeneExchangeMatchesFullRecompute) {
  // Crossover's unit: one gene (the row of one site) replaced wholesale;
  // only the objects whose bit changed are re-derived.
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const Problem p = testing::small_random_problem(seed, 7, 10);
    util::Rng rng(seed);
    CostEvaluator full(p);
    CostEvaluator delta(p);
    auto matrix = random_matrix(p, rng);
    std::vector<double> v(p.objects(), 0.0);
    (void)delta.full_cost(matrix, v);
    const std::size_t n = p.objects();
    for (int step = 0; step < 20; ++step) {
      const auto site = static_cast<SiteId>(rng.index(p.sites()));
      std::vector<ObjectId> changed;
      for (ObjectId k = 0; k < n; ++k) {
        const std::uint8_t bit = rng.bernoulli(0.4) ? 1 : 0;
        std::uint8_t& held = cell(p, matrix, site, k);
        if (held == bit) continue;
        held = bit;  // a cleared primary bit still counts as set
        changed.push_back(k);
      }
      const double total = delta.delta_cost(matrix, changed, v);
      ASSERT_EQ(full.total_cost(matrix), total);
    }
  }
}

TEST(DeltaEvaluator, RefreshAfterPatternMutation) {
  Problem p = testing::small_random_problem(21, 8, 10);
  util::Rng rng(211);
  CostEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  (void)delta.full_cost(matrix, v);
  for (int round = 0; round < 5; ++round) {
    // Mutate the request patterns, then refresh, re-derive the V_k and keep
    // delta-evaluating.
    for (int change = 0; change < 10; ++change) {
      const auto i = static_cast<SiteId>(rng.index(p.sites()));
      const auto k = static_cast<ObjectId>(rng.index(p.objects()));
      if (rng.bernoulli(0.5)) {
        p.set_reads(i, k, static_cast<double>(rng.index(50)));
      } else {
        p.set_writes(i, k, static_cast<double>(rng.index(20)));
      }
    }
    delta.refresh();
    CostEvaluator fresh(p);
    EXPECT_EQ(fresh.primary_only_cost(), delta.primary_only_cost());
    ASSERT_EQ(fresh.total_cost(matrix), delta.full_cost(matrix, v));
    for (int step = 0; step < 10; ++step) {
      const auto [i, k] = random_free_cell(p, rng);
      const double total = flip(delta, matrix, v, i, k);
      ASSERT_EQ(fresh.total_cost(matrix), total);
    }
  }
}

TEST(DeltaEvaluator, StatelessFullAndDeltaCostAgree) {
  // The population-evaluation path: evaluate a parent fully, mutate the
  // matrix, re-derive only the changed objects.
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    const Problem p = testing::small_random_problem(seed, 9, 12);
    util::Rng rng(seed * 3);
    CostEvaluator delta(p);
    CostEvaluator full(p);
    auto matrix = random_matrix(p, rng);
    std::vector<double> v(p.objects(), 0.0);
    const double base = delta.full_cost(matrix, v);
    ASSERT_EQ(full.total_cost(matrix), base);

    std::vector<ObjectId> changed;
    for (int flip_count = 0; flip_count < 8; ++flip_count) {
      const auto [i, k] = random_free_cell(p, rng);
      std::uint8_t& bit = cell(p, matrix, i, k);
      bit = bit != 0 ? 0 : 1;
      changed.push_back(k);
      changed.push_back(k);  // duplicates must be harmless
    }
    const double updated = delta.delta_cost(matrix, changed, v);
    ASSERT_EQ(full.total_cost(matrix), updated) << "delta_cost not exact";
  }
}

TEST(DeltaEvaluator, PrimaryFlipsAreRejected) {
  // Clearing a primary bit drops no copy: the primary counts as set, so
  // the column, the re-derived V_k and the total do not move.
  const Problem p = testing::small_random_problem(5, 6, 6);
  util::Rng rng(55);
  CostEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  const double total = delta.full_cost(matrix, v);
  const ObjectId k = 2;
  const SiteId sp = p.primary(k);
  const double column = delta.column_cost(matrix, k);
  cell(p, matrix, sp, k) = 0;
  EXPECT_EQ(delta.column_cost(matrix, k), column);
  const ObjectId changed[] = {k};
  EXPECT_EQ(delta.delta_cost(matrix, changed, v), total);
  EXPECT_EQ(delta.total_cost(matrix), total);
}

TEST(DeltaEvaluator, RequiresBaselineAndValidShapes) {
  // delta_cost's baseline is an N-long V_k vector; every entry point checks
  // the matrix shape and the object range.
  const Problem p = testing::small_random_problem(6, 5, 5);
  CostEvaluator delta(p);
  util::Rng rng(66);
  const auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  std::vector<double> short_v(p.objects() - 1, 0.0);
  const std::vector<std::uint8_t> bad(3, 0);
  const ObjectId one[] = {1};
  const ObjectId out_of_range[] = {static_cast<ObjectId>(p.objects())};
  EXPECT_THROW((void)delta.delta_cost(matrix, one, short_v),
               std::invalid_argument);
  EXPECT_THROW((void)delta.full_cost(matrix, short_v), std::invalid_argument);
  EXPECT_THROW((void)delta.full_cost(bad, v), std::invalid_argument);
  EXPECT_THROW((void)delta.delta_cost(bad, one, v), std::invalid_argument);
  EXPECT_THROW((void)delta.column_cost(bad, 0), std::invalid_argument);
  EXPECT_THROW((void)delta.delta_cost(matrix, out_of_range, v),
               std::out_of_range);
  EXPECT_THROW(
      (void)delta.column_cost(matrix, static_cast<ObjectId>(p.objects())),
      std::out_of_range);
}

TEST(DeltaEvaluator, FitnessMatchesCostEvaluator) {
  const Problem p = testing::small_random_problem(8, 8, 8);
  util::Rng rng(88);
  CostEvaluator delta(p);
  const auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  const double total = delta.full_cost(matrix, v);
  const double d_prime = delta.primary_only_cost();
  EXPECT_EQ(delta.fitness(matrix), (d_prime - total) / d_prime);
  EXPECT_EQ(d_prime, primary_only_cost(p));
}

TEST(DeltaEvaluator, WorkAccountingCountsObjectKernels) {
  const Problem p = testing::small_random_problem(9, 6, 10);
  util::Rng rng(99);
  CostEvaluator delta(p);
  auto matrix = random_matrix(p, rng);
  std::vector<double> v(p.objects(), 0.0);
  (void)delta.full_cost(matrix, v);
  EXPECT_EQ(delta.objects_recomputed(), p.objects());
  const auto [i, k] = random_free_cell(p, rng);
  (void)flip(delta, matrix, v, i, k);
  EXPECT_EQ(delta.objects_recomputed(), p.objects() + 1);
  (void)delta.column_cost(matrix, k);
  EXPECT_EQ(delta.objects_recomputed(), p.objects() + 2);
}

}  // namespace
}  // namespace drep::core
