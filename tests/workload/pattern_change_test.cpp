#include "workload/pattern_change.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "workload/generator.hpp"

namespace drep::workload {
namespace {

core::Problem make_problem(std::uint64_t seed) {
  GeneratorConfig config;
  config.sites = 20;
  config.objects = 50;
  config.update_ratio_percent = 5.0;
  config.capacity_percent = 20.0;
  util::Rng rng(seed);
  return generate(config, rng);
}

TEST(PatternChangeConfig, Validation) {
  PatternChangeConfig config;
  EXPECT_NO_THROW(config.validate());
  config.change_percent = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = PatternChangeConfig{};
  config.objects_percent = 120.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = PatternChangeConfig{};
  config.read_share_percent = -5.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = PatternChangeConfig{};
  config.cluster_stddev_divisor = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = PatternChangeConfig{};
  config.objects_percent = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = PatternChangeConfig{};
  config.read_share_percent = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    config = PatternChangeConfig{};
    config.change_percent = bad;
    EXPECT_THROW(config.validate(), std::invalid_argument) << bad;
  }
}

TEST(PatternChange, ChangesTheRequestedObjectCount) {
  core::Problem p = make_problem(1);
  PatternChangeConfig config;
  config.objects_percent = 30.0;  // 15 of 50
  config.read_share_percent = 80.0;
  util::Rng rng(2);
  const PatternChangeReport report = apply_pattern_change(p, config, rng);
  EXPECT_EQ(report.reads_increased.size(), 12u);   // 80% of 15
  EXPECT_EQ(report.writes_increased.size(), 3u);
  // No object in both lists; ids valid and distinct.
  std::set<core::ObjectId> all;
  for (core::ObjectId k : report.all_changed()) {
    EXPECT_LT(k, p.objects());
    EXPECT_TRUE(all.insert(k).second);
  }
  EXPECT_EQ(all.size(), 15u);
}

TEST(PatternChange, ReadIncreaseMatchesChPercent) {
  core::Problem p = make_problem(3);
  const core::Problem before = p;
  PatternChangeConfig config;
  config.change_percent = 600.0;
  config.objects_percent = 20.0;
  config.read_share_percent = 100.0;
  util::Rng rng(4);
  const PatternChangeReport report = apply_pattern_change(p, config, rng);
  for (core::ObjectId k : report.reads_increased) {
    EXPECT_NEAR(p.total_reads(k), 7.0 * before.total_reads(k),
                1.0);  // +600% (rounding slack)
    EXPECT_DOUBLE_EQ(p.total_writes(k), before.total_writes(k));
  }
}

TEST(PatternChange, WriteIncreaseMatchesChPercent) {
  core::Problem p = make_problem(5);
  const core::Problem before = p;
  PatternChangeConfig config;
  config.change_percent = 400.0;
  config.objects_percent = 20.0;
  config.read_share_percent = 0.0;  // all changes are update increases
  util::Rng rng(6);
  const PatternChangeReport report = apply_pattern_change(p, config, rng);
  EXPECT_TRUE(report.reads_increased.empty());
  for (core::ObjectId k : report.writes_increased) {
    EXPECT_NEAR(p.total_writes(k), before.total_writes(k) +
                    std::round(4.0 * before.total_writes(k)), 1.0);
    EXPECT_DOUBLE_EQ(p.total_reads(k), before.total_reads(k));
  }
}

TEST(PatternChange, UntouchedObjectsKeepTheirPatterns) {
  core::Problem p = make_problem(7);
  const core::Problem before = p;
  PatternChangeConfig config;
  config.objects_percent = 10.0;
  util::Rng rng(8);
  const PatternChangeReport report = apply_pattern_change(p, config, rng);
  std::set<core::ObjectId> changed;
  for (core::ObjectId k : report.all_changed()) changed.insert(k);
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    if (changed.count(k) != 0) continue;
    EXPECT_DOUBLE_EQ(p.total_reads(k), before.total_reads(k));
    EXPECT_DOUBLE_EQ(p.total_writes(k), before.total_writes(k));
  }
}

TEST(PatternChange, ZeroObjectsPercentIsNoOp) {
  core::Problem p = make_problem(9);
  const core::Problem before = p;
  PatternChangeConfig config;
  config.objects_percent = 0.0;
  util::Rng rng(10);
  const PatternChangeReport report = apply_pattern_change(p, config, rng);
  EXPECT_TRUE(report.all_changed().empty());
  for (core::ObjectId k = 0; k < p.objects(); ++k)
    EXPECT_DOUBLE_EQ(p.total_reads(k), before.total_reads(k));
}

TEST(PatternChange, WriteIncreaseOnNeverWrittenObjectUsesReadBase) {
  GeneratorConfig gen;
  gen.sites = 10;
  gen.objects = 5;
  gen.update_ratio_percent = 0.0;  // no writes at all
  util::Rng grng(11);
  core::Problem p = generate(gen, grng);
  PatternChangeConfig config;
  config.objects_percent = 100.0;
  config.read_share_percent = 0.0;
  config.change_percent = 100.0;
  util::Rng rng(12);
  const PatternChangeReport report = apply_pattern_change(p, config, rng);
  EXPECT_EQ(report.writes_increased.size(), 5u);
  for (core::ObjectId k : report.writes_increased)
    EXPECT_GT(p.total_writes(k), 0.0);
}

TEST(ClusteredUpdates, AddsExactCountAndClusters) {
  core::Problem p = make_problem(13);
  const double before = p.total_writes(0);
  util::Rng rng(14);
  clustered_updates(p, 0, 500.0, /*sigma=*/2.0, rng);
  EXPECT_DOUBLE_EQ(p.total_writes(0), before + 500.0);
  // With sigma = 2 over 20 sites, the mass must concentrate: the busiest
  // site should hold far more than the uniform share.
  double max_writes = 0.0;
  for (core::SiteId i = 0; i < p.sites(); ++i)
    max_writes = std::max(max_writes, p.writes(i, 0));
  EXPECT_GT(max_writes, 2.0 * 500.0 / static_cast<double>(p.sites()));
}

TEST(ClusteredUpdates, AllSitesInRange) {
  core::Problem p = make_problem(15);
  util::Rng rng(16);
  // Huge sigma: the wrap-around must still land every request on a valid
  // site (implicitly checked by Problem's bounds-checked setters).
  EXPECT_NO_THROW(clustered_updates(p, 1, 200.0, 100.0, rng));
}

// Regression: the fractional part of `count` used to be truncated, so a
// drift smaller than one request silently added nothing. It is now carried
// stochastically — the total added matches the requested count in
// expectation.
TEST(ClusteredUpdates, FractionalCountMatchesRequestInExpectation) {
  constexpr double kCount = 2.3;
  constexpr int kTrials = 2000;
  double added = 0.0;
  util::Rng rng(19);
  for (int trial = 0; trial < kTrials; ++trial) {
    core::Problem p = make_problem(20);
    const double before = p.total_writes(0);
    clustered_updates(p, 0, kCount, /*sigma=*/2.0, rng);
    added += p.total_writes(0) - before;
  }
  // Per trial the total is 2 + Bernoulli(0.3): mean 2.3, variance 0.21.
  // 2000 trials put the sample mean within ±0.04 of 2.3 at ~4 sigma.
  EXPECT_NEAR(added / kTrials, kCount, 0.04);
}

TEST(ClusteredUpdates, SubUnitCountIsNotSilentlyDropped) {
  // count = 0.7 must land a request ~70% of the time; pre-fix it was
  // always truncated to zero.
  int landed = 0;
  util::Rng rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    core::Problem p = make_problem(22);
    const double before = p.total_writes(1);
    clustered_updates(p, 1, 0.7, /*sigma=*/2.0, rng);
    if (p.total_writes(1) > before) ++landed;
  }
  EXPECT_GT(landed, 280);  // 0.7·500 = 350, ~4 sigma below
  EXPECT_LT(landed, 420);
}

TEST(ClusteredUpdates, IntegralCountConsumesUnchangedRngStream) {
  // The carry draw happens only for fractional counts, so integral counts
  // must produce bit-identical patterns to the pre-fix behavior — the
  // OFF-path bit-compatibility guarantee for apply_pattern_change.
  core::Problem a = make_problem(23);
  core::Problem b = make_problem(23);
  util::Rng rng_a(24), rng_b(24);
  clustered_updates(a, 0, 100.0, /*sigma=*/3.0, rng_a);
  clustered_updates(b, 0, 100.0, /*sigma=*/3.0, rng_b);
  // Both streams drew identically; follow-up draws stay aligned too.
  EXPECT_EQ(rng_a.uniform_u64(0, 1000000), rng_b.uniform_u64(0, 1000000));
  for (core::SiteId i = 0; i < a.sites(); ++i)
    EXPECT_DOUBLE_EQ(a.writes(i, 0), b.writes(i, 0));
}

TEST(PatternChange, DeterministicGivenSeed) {
  core::Problem a = make_problem(17);
  core::Problem b = make_problem(17);
  PatternChangeConfig config;
  util::Rng rng_a(18), rng_b(18);
  (void)apply_pattern_change(a, config, rng_a);
  (void)apply_pattern_change(b, config, rng_b);
  for (core::SiteId i = 0; i < a.sites(); ++i) {
    for (core::ObjectId k = 0; k < a.objects(); ++k) {
      EXPECT_DOUBLE_EQ(a.reads(i, k), b.reads(i, k));
      EXPECT_DOUBLE_EQ(a.writes(i, k), b.writes(i, k));
    }
  }
}

}  // namespace
}  // namespace drep::workload
