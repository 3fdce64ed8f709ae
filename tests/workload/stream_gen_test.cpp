// Streaming workload generator: determinism, per-object purity, demand-row
// structure, the capacity headroom policy, and the partial-row/full-row
// equivalence contract.

#include "workload/stream_gen.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/cost_model.hpp"

namespace drep::workload {
namespace {

StreamConfig small_config(std::uint64_t seed = 7) {
  StreamConfig config;
  config.sites = 10;
  config.objects = 40;
  config.seed = seed;
  return config;
}

TEST(StreamConfig, ValidateRejectsBadRangesAndFractions) {
  EXPECT_NO_THROW(small_config().validate());
  StreamConfig c = small_config();
  c.sites = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.readers_lo = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.readers_lo = 9;
  c.readers_hi = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.reads_lo = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.object_size_lo = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.capacity_fraction = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = small_config();
  c.cost_scale = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(StreamGen, ObjectSpecsArePureAndOrderIndependent) {
  const StreamGen gen(small_config());
  // Out-of-order and repeated draws return identical specs.
  const ObjectSpec late_first = gen.object(33);
  const ObjectSpec early = gen.object(2);
  const ObjectSpec late_again = gen.object(33);
  EXPECT_EQ(late_first.size, late_again.size);
  EXPECT_EQ(late_first.primary, late_again.primary);
  ASSERT_EQ(late_first.demands.size(), late_again.demands.size());
  for (std::size_t z = 0; z < late_first.demands.size(); ++z) {
    EXPECT_EQ(late_first.demands[z].site, late_again.demands[z].site);
    EXPECT_EQ(late_first.demands[z].reads, late_again.demands[z].reads);
    EXPECT_EQ(late_first.demands[z].writes, late_again.demands[z].writes);
  }
  EXPECT_EQ(early.id, 2u);

  // A second generator over the same config agrees everywhere.
  const StreamGen twin(small_config());
  for (core::ObjectId k = 0; k < small_config().objects; ++k) {
    const ObjectSpec a = gen.object(k);
    const ObjectSpec b = twin.object(k);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.primary, b.primary);
    ASSERT_EQ(a.demands.size(), b.demands.size());
  }
}

TEST(StreamGen, DemandRowsAreStrictlyAscendingWithBoundedCounts) {
  const StreamConfig config = small_config(11);
  const StreamGen gen(config);
  for (core::ObjectId k = 0; k < config.objects; ++k) {
    const ObjectSpec spec = gen.object(k);
    EXPECT_GE(spec.size, static_cast<double>(config.object_size_lo));
    EXPECT_LE(spec.size, static_cast<double>(config.object_size_hi));
    EXPECT_LT(spec.primary, config.sites);
    ASSERT_FALSE(spec.demands.empty());
    for (std::size_t z = 0; z < spec.demands.size(); ++z) {
      const core::DemandEntry& e = spec.demands[z];
      if (z > 0) EXPECT_GT(e.site, spec.demands[z - 1].site);
      EXPECT_LT(e.site, config.sites);
      EXPECT_GE(e.reads, 0.0);
      EXPECT_LE(e.reads, static_cast<double>(config.reads_hi));
      EXPECT_LE(e.writes, static_cast<double>(config.writes_hi));
    }
  }
}

TEST(StreamGen, CapacitiesArePinnedMassPlusUniformHeadroom) {
  const StreamConfig config = small_config(13);
  const StreamGen gen(config);
  std::vector<double> pinned(config.sites, 0.0);
  for (core::ObjectId k = 0; k < config.objects; ++k) {
    const ObjectSpec spec = gen.object(k);
    pinned[spec.primary] += spec.size;
  }
  const std::vector<double> caps = gen.capacities();
  ASSERT_EQ(caps.size(), config.sites);
  const double headroom = caps[0] - pinned[0];
  EXPECT_GT(headroom, 0.0);
  for (std::size_t i = 0; i < config.sites; ++i) {
    EXPECT_DOUBLE_EQ(caps[i] - pinned[i], headroom);
    EXPECT_GE(caps[i], pinned[i]);
  }
}

TEST(StreamGen, BuildSparseInstanceIsDeterministic) {
  const core::Problem a = build_sparse_instance(small_config(17));
  const core::Problem b = build_sparse_instance(small_config(17));
  ASSERT_EQ(a.demand_cells(), b.demand_cells());
  for (core::ObjectId k = 0; k < a.objects(); ++k) {
    EXPECT_EQ(a.object_size(k), b.object_size(k));
    EXPECT_EQ(a.primary(k), b.primary(k));
    EXPECT_EQ(a.total_reads(k), b.total_reads(k));
    EXPECT_EQ(a.total_writes(k), b.total_writes(k));
  }
  EXPECT_EQ(core::primary_only_cost(a), core::primary_only_cost(b));

  const core::Problem c = build_sparse_instance(small_config(18));
  EXPECT_NE(core::primary_only_cost(a), core::primary_only_cost(c));
}

TEST(StreamGen, MaterializeProblemMatchesSparseInstance) {
  const StreamConfig config = small_config(19);
  const core::Problem inst = build_sparse_instance(config);
  const core::Problem direct = materialize_problem(config);
  const core::Problem via_instance = inst.materialize();
  EXPECT_EQ(direct.demand_cells(), direct.sites() * direct.objects());
  EXPECT_LT(inst.demand_cells(), direct.demand_cells());
  ASSERT_EQ(direct.sites(), via_instance.sites());
  ASSERT_EQ(direct.objects(), via_instance.objects());
  for (core::SiteId i = 0; i < direct.sites(); ++i) {
    EXPECT_EQ(direct.capacity(i), via_instance.capacity(i));
    for (core::ObjectId k = 0; k < direct.objects(); ++k) {
      EXPECT_EQ(direct.reads(i, k), inst.reads(i, k));
      EXPECT_EQ(direct.writes(i, k), inst.writes(i, k));
      EXPECT_EQ(direct.cost(i, static_cast<core::SiteId>(k % direct.sites())),
                via_instance.cost(i, static_cast<core::SiteId>(k % direct.sites())));
    }
  }
  for (core::ObjectId k = 0; k < direct.objects(); ++k) {
    EXPECT_EQ(direct.total_reads(k), inst.total_reads(k));
    EXPECT_EQ(direct.total_writes(k), inst.total_writes(k));
  }
}

TEST(StreamGen, TopologyIsSymmetricWithZeroDiagonal) {
  const StreamConfig config = small_config(23);
  const StreamGen gen(config);
  const net::CostMatrix& costs = gen.costs();
  for (net::SiteId i = 0; i < config.sites; ++i) {
    EXPECT_EQ(costs.at(i, i), 0.0);
    for (net::SiteId j = 0; j < config.sites; ++j) {
      EXPECT_EQ(costs.at(i, j), costs.at(j, i));
      EXPECT_GE(costs.at(i, j), 0.0);
    }
  }
}

}  // namespace
}  // namespace drep::workload
