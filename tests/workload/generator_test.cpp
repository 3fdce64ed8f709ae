#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace drep::workload {
namespace {

GeneratorConfig small_config() {
  GeneratorConfig config;
  config.sites = 15;
  config.objects = 30;
  config.update_ratio_percent = 5.0;
  config.capacity_percent = 20.0;
  return config;
}

TEST(GeneratorConfig, Validation) {
  GeneratorConfig config = small_config();
  EXPECT_NO_THROW(config.validate());
  config.sites = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.objects = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.update_ratio_percent = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.reads_lo = 10;
  config.reads_hi = 5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.object_size_lo = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.link_cost_lo = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Non-finite ratios: NaN passes a `< 0` check, and either one would reach
  // scatter_requests as a request count.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    config = small_config();
    config.update_ratio_percent = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
    config = small_config();
    config.capacity_percent = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
  }
}

TEST(Generator, ShapesAndRanges) {
  util::Rng rng(1);
  const GeneratorConfig config = small_config();
  const core::Problem p = generate(config, rng);
  EXPECT_EQ(p.sites(), config.sites);
  EXPECT_EQ(p.objects(), config.objects);
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    EXPECT_GE(p.object_size(k), static_cast<double>(config.object_size_lo));
    EXPECT_LE(p.object_size(k), static_cast<double>(config.object_size_hi));
    EXPECT_LT(p.primary(k), p.sites());
  }
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    for (core::ObjectId k = 0; k < p.objects(); ++k) {
      EXPECT_GE(p.reads(i, k), 1.0);
      EXPECT_LE(p.reads(i, k), 40.0);
      EXPECT_GE(p.writes(i, k), 0.0);
      EXPECT_DOUBLE_EQ(p.writes(i, k), std::floor(p.writes(i, k)));
    }
  }
}

TEST(Generator, CostMatrixIsShortestPathMetric) {
  util::Rng rng(2);
  const core::Problem p = generate(small_config(), rng);
  EXPECT_TRUE(p.costs().is_metric());
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    for (core::SiteId j = 0; j < p.sites(); ++j) {
      if (i == j) continue;
      EXPECT_GE(p.cost(i, j), 1.0);
      EXPECT_LE(p.cost(i, j), 10.0);
    }
  }
}

TEST(Generator, UpdateRatioApproximatelyRespected) {
  util::Rng rng(3);
  GeneratorConfig config = small_config();
  config.sites = 30;
  config.objects = 100;
  config.update_ratio_percent = 10.0;
  const core::Problem p = generate(config, rng);
  double total_reads = 0.0, total_writes = 0.0;
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    total_reads += p.total_reads(k);
    total_writes += p.total_writes(k);
    // Per object: target = 10% of reads, final in [target/2, 3·target/2]
    // (+1 rounding slack).
    const double target = 0.10 * p.total_reads(k);
    EXPECT_GE(p.total_writes(k), std::floor(target / 2.0));
    EXPECT_LE(p.total_writes(k), std::ceil(3.0 * target / 2.0));
  }
  // Aggregate ratio near 10% (expectation of U(T/2, 3T/2) is T).
  EXPECT_NEAR(total_writes / total_reads, 0.10, 0.02);
}

TEST(Generator, ZeroUpdateRatioMeansNoWrites) {
  util::Rng rng(4);
  GeneratorConfig config = small_config();
  config.update_ratio_percent = 0.0;
  const core::Problem p = generate(config, rng);
  for (core::ObjectId k = 0; k < p.objects(); ++k)
    EXPECT_DOUBLE_EQ(p.total_writes(k), 0.0);
}

TEST(Generator, CapacitiesHoldPinnedPrimariesAndFollowCPercent) {
  util::Rng rng(5);
  GeneratorConfig config = small_config();
  config.capacity_percent = 15.0;
  const core::Problem p = generate(config, rng);
  std::vector<double> pinned(p.sites(), 0.0);
  for (core::ObjectId k = 0; k < p.objects(); ++k)
    pinned[p.primary(k)] += p.object_size(k);
  const double mean_cap = 0.15 * p.total_object_size();
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    EXPECT_GE(p.capacity(i), pinned[i]);
    // Capacity is max(draw, pinned) with draw <= 3C·T/2.
    EXPECT_LE(p.capacity(i), std::max(1.5 * mean_cap, pinned[i]) + 1e-9);
  }
  EXPECT_NO_THROW(p.validate());
}

TEST(Generator, DeterministicForSameSeed) {
  util::Rng rng_a(42), rng_b(42);
  const core::Problem a = generate(small_config(), rng_a);
  const core::Problem b = generate(small_config(), rng_b);
  for (core::SiteId i = 0; i < a.sites(); ++i) {
    EXPECT_DOUBLE_EQ(a.capacity(i), b.capacity(i));
    for (core::ObjectId k = 0; k < a.objects(); ++k) {
      EXPECT_DOUBLE_EQ(a.reads(i, k), b.reads(i, k));
      EXPECT_DOUBLE_EQ(a.writes(i, k), b.writes(i, k));
    }
  }
  for (core::ObjectId k = 0; k < a.objects(); ++k) {
    EXPECT_EQ(a.primary(k), b.primary(k));
    EXPECT_DOUBLE_EQ(a.object_size(k), b.object_size(k));
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  util::Rng rng_a(1), rng_b(2);
  const core::Problem a = generate(small_config(), rng_a);
  const core::Problem b = generate(small_config(), rng_b);
  bool any_difference = false;
  for (core::SiteId i = 0; i < a.sites() && !any_difference; ++i) {
    for (core::ObjectId k = 0; k < a.objects(); ++k) {
      if (a.reads(i, k) != b.reads(i, k)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ScatterRequests, AddsExactWholeCount) {
  util::Rng rng(6);
  core::Problem p = generate(small_config(), rng);
  const double before = p.total_reads(0);
  scatter_requests(p, 0, 25.0, /*writes=*/false, rng);
  EXPECT_DOUBLE_EQ(p.total_reads(0), before + 25.0);
  const double writes_before = p.total_writes(0);
  scatter_requests(p, 0, 10.0, /*writes=*/true, rng);
  EXPECT_DOUBLE_EQ(p.total_writes(0), writes_before + 10.0);
}

TEST(ScatterRequests, FractionalCountInExpectation) {
  util::Rng rng(7);
  core::Problem p = generate(small_config(), rng);
  double added = 0.0;
  const double before = p.total_reads(0);
  for (int trial = 0; trial < 2000; ++trial)
    scatter_requests(p, 0, 0.5, /*writes=*/false, rng);
  added = p.total_reads(0) - before;
  EXPECT_NEAR(added / 2000.0, 0.5, 0.05);
}

}  // namespace
}  // namespace drep::workload
