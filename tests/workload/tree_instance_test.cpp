// Tree-instance generator (workload/tree_instance.hpp): instances are valid,
// integral, deterministic, and their cost matrices are genuine tree metrics.

#include "workload/tree_instance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "net/tree_metric.hpp"
#include "util/rng.hpp"

namespace drep::workload {
namespace {

core::Problem make(const TreeInstanceConfig& config, std::uint64_t seed) {
  util::Rng rng(seed);
  return generate_tree(config, rng);
}

bool is_integral(double value) { return value == std::floor(value); }

TEST(TreeInstance, ProducesTreeMetricAndIntegralData) {
  TreeInstanceConfig config;
  config.sites = 20;
  config.objects = 10;
  const core::Problem p = make(config, 42);
  EXPECT_TRUE(net::TreeMetric::extract(p.costs()).has_value());
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    for (core::SiteId j = 0; j < p.sites(); ++j)
      EXPECT_TRUE(is_integral(p.cost(i, j)));
  }
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    EXPECT_TRUE(is_integral(p.object_size(k)));
    for (core::SiteId i = 0; i < p.sites(); ++i) {
      EXPECT_TRUE(is_integral(p.reads(i, k)));
      EXPECT_TRUE(is_integral(p.writes(i, k)));
    }
  }
}

TEST(TreeInstance, SameSeedSameInstance) {
  TreeInstanceConfig config;
  config.sites = 15;
  config.objects = 8;
  config.depth_skew = 0.4;
  const core::Problem a = make(config, 7);
  const core::Problem b = make(config, 7);
  ASSERT_EQ(a.sites(), b.sites());
  ASSERT_EQ(a.objects(), b.objects());
  for (core::SiteId i = 0; i < a.sites(); ++i) {
    EXPECT_EQ(a.capacity(i), b.capacity(i));
    for (core::SiteId j = 0; j < a.sites(); ++j)
      EXPECT_EQ(a.cost(i, j), b.cost(i, j));
  }
  for (core::ObjectId k = 0; k < a.objects(); ++k) {
    EXPECT_EQ(a.object_size(k), b.object_size(k));
    EXPECT_EQ(a.primary(k), b.primary(k));
    for (core::SiteId i = 0; i < a.sites(); ++i) {
      EXPECT_EQ(a.reads(i, k), b.reads(i, k));
      EXPECT_EQ(a.writes(i, k), b.writes(i, k));
    }
  }
}

TEST(TreeInstance, ChainShapeIsAPath) {
  TreeInstanceConfig config;
  config.sites = 6;
  config.objects = 2;
  config.shape = TreeInstanceConfig::Shape::kChain;
  const core::Problem p = make(config, 3);
  // Consecutive-hop distances add up along the path.
  for (core::SiteId i = 0; i + 1 < p.sites(); ++i) {
    for (core::SiteId j = static_cast<core::SiteId>(i + 1); j < p.sites();
         ++j) {
      double along = 0.0;
      for (core::SiteId h = i; h < j; ++h)
        along += p.cost(h, static_cast<core::SiteId>(h + 1));
      EXPECT_EQ(p.cost(i, j), along);
    }
  }
}

TEST(TreeInstance, StarShapeRoutesThroughHub) {
  TreeInstanceConfig config;
  config.sites = 7;
  config.objects = 2;
  config.shape = TreeInstanceConfig::Shape::kStar;
  const core::Problem p = make(config, 3);
  for (core::SiteId i = 1; i < p.sites(); ++i) {
    for (core::SiteId j = static_cast<core::SiteId>(i + 1); j < p.sites();
         ++j) {
      EXPECT_EQ(p.cost(i, j), p.cost(i, 0) + p.cost(0, j));
    }
  }
}

TEST(TreeInstance, FanoutBoundIsRespected) {
  TreeInstanceConfig config;
  config.sites = 40;
  config.objects = 1;
  config.fanout = 2;
  const core::Problem p = make(config, 9);
  const auto metric = net::TreeMetric::extract(p.costs());
  ASSERT_TRUE(metric.has_value());
  const net::RootedTree rooted = metric->rooted_at(0);
  for (net::SiteId v = 0; v < p.sites(); ++v)
    EXPECT_LE(rooted.children[v].size(), 2u) << "site " << v;
}

TEST(TreeInstance, ClientSubsetLimitsReaders) {
  TreeInstanceConfig config;
  config.sites = 12;
  config.objects = 6;
  config.clients_per_object = 4;
  const core::Problem p = make(config, 5);
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    std::size_t readers = 0;
    for (core::SiteId i = 0; i < p.sites(); ++i)
      readers += p.reads(i, k) > 0.0 ? 1 : 0;
    EXPECT_LE(readers, 4u);
    EXPECT_GE(readers, 1u);
  }
}

TEST(TreeInstance, AmpleCapacityHoldsEverything) {
  TreeInstanceConfig config;
  config.sites = 10;
  config.objects = 12;
  const core::Problem p = make(config, 11);
  double total = 0.0;
  for (core::ObjectId k = 0; k < p.objects(); ++k) total += p.object_size(k);
  for (core::SiteId i = 0; i < p.sites(); ++i)
    EXPECT_GE(p.capacity(i), total);
}

TEST(TreeInstance, PaperCapacityModeValidates) {
  TreeInstanceConfig config;
  config.sites = 10;
  config.objects = 12;
  config.capacity_percent = 30.0;
  EXPECT_NO_THROW(make(config, 13));  // Problem::validate ran inside
}

TEST(TreeInstance, SkewKnobsShapeDepth) {
  // Strong positive skew approaches a chain (deep), strong negative a star
  // (shallow); compare max depth from the root.
  const auto max_depth = [](const core::Problem& p) {
    const auto metric = net::TreeMetric::extract(p.costs());
    const net::RootedTree rooted = metric->rooted_at(0);
    std::vector<std::size_t> depth(p.sites(), 0);
    std::size_t deepest = 0;
    for (const net::SiteId v : rooted.order) {
      if (v == rooted.root) continue;
      depth[v] = depth[rooted.parent[v]] + 1;
      deepest = std::max(deepest, depth[v]);
    }
    return deepest;
  };
  TreeInstanceConfig config;
  config.sites = 30;
  config.objects = 1;
  config.fanout = 0;
  config.depth_skew = 0.95;
  const std::size_t deep = max_depth(make(config, 21));
  config.depth_skew = -0.95;
  const std::size_t shallow = max_depth(make(config, 21));
  EXPECT_GT(deep, shallow);
}

TEST(TreeInstance, RejectsBadConfigs) {
  util::Rng rng(1);
  TreeInstanceConfig config;
  config.sites = 0;
  EXPECT_THROW(generate_tree(config, rng), std::invalid_argument);
  config = {};
  config.depth_skew = 1.5;
  EXPECT_THROW(generate_tree(config, rng), std::invalid_argument);
  config = {};
  config.link_cost_lo = 0;
  EXPECT_THROW(generate_tree(config, rng), std::invalid_argument);
  config = {};
  config.clients_per_object = config.sites + 1;
  EXPECT_THROW(generate_tree(config, rng), std::invalid_argument);
  // NaN passes `x < lo || x > hi`; every double knob rejects it and inf.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    config = {};
    config.depth_skew = bad;
    EXPECT_THROW(generate_tree(config, rng), std::invalid_argument) << bad;
    config = {};
    config.update_ratio_percent = bad;
    EXPECT_THROW(generate_tree(config, rng), std::invalid_argument) << bad;
    config = {};
    config.capacity_percent = bad;
    EXPECT_THROW(generate_tree(config, rng), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace drep::workload
