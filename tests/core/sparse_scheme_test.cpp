// ReplicationScheme over partial demand rows: nearest-cache and
// second-nearest semantics at the stored cells, the row-shape equivalence
// contract (partial rows vs the full rows of the same instance), and
// history-independence of the cache.

#include "core/replication.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "audit/invariants.hpp"
#include "core/cost_model.hpp"
#include "testing/builders.hpp"
#include "testing/row_shapes.hpp"
#include "util/rng.hpp"
#include "workload/stream_gen.hpp"

namespace drep::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Problem tiny_instance() {
  net::CostMatrix costs(4);
  for (net::SiteId i = 0; i < 4; ++i) {
    for (net::SiteId j = static_cast<net::SiteId>(i + 1); j < 4; ++j) {
      costs.set(i, j, static_cast<double>(j - i));
    }
  }
  Problem inst = testing::partial_row_problem(
      std::move(costs), {2.0, 3.0}, {0, 3}, {100.0, 100.0, 100.0, 100.0},
      {{{1, 5.0, 1.0}, {3, 2.0, 0.0}}, {{0, 3.0, 0.0}, {2, 1.0, 1.0}}});
  inst.validate();
  return inst;
}

TEST(SparseReplicationScheme, PrimaryOnlyInitialState) {
  const Problem inst = tiny_instance();
  const ReplicationScheme scheme(inst);
  EXPECT_TRUE(scheme.has_replica(0, 0));
  EXPECT_TRUE(scheme.has_replica(3, 1));
  EXPECT_FALSE(scheme.has_replica(1, 0));
  EXPECT_EQ(scheme.total_replicas(), 2u);
  EXPECT_EQ(scheme.extra_replicas(), 0u);
  EXPECT_EQ(scheme.used(0), 2.0);
  EXPECT_EQ(scheme.used(3), 3.0);
  // Demand cell 0 is (site 1, object 0): nearest is the primary at cost 1,
  // second is the (+inf, SP_k) sentinel.
  EXPECT_EQ(scheme.nearest_site_at(0), 0u);
  EXPECT_EQ(scheme.nearest_cost_at(0), 1.0);
  EXPECT_EQ(scheme.second_nearest(1, 0), 0u);
  EXPECT_EQ(scheme.second_nearest_cost(1, 0), kInf);
  // (site 2, object 0) is absent from the row: answered from R_k.
  EXPECT_EQ(scheme.nearest(2, 0), 0u);
  EXPECT_EQ(scheme.nearest_cost(2, 0), 2.0);
  EXPECT_EQ(scheme.second_nearest_cost(2, 0), kInf);
  EXPECT_TRUE(scheme.is_valid());
}

TEST(SparseReplicationScheme, AddAndRemoveMaintainTop2) {
  const Problem inst = tiny_instance();
  ReplicationScheme scheme(inst);
  scheme.add(2, 0);
  // Cell (1, 0): replicas {0, 2} are equidistant at cost 1 — lex tie-break
  // keeps the primary (site 0) nearest and site 2 second.
  EXPECT_EQ(scheme.nearest_site_at(0), 0u);
  EXPECT_EQ(scheme.nearest_cost_at(0), 1.0);
  EXPECT_EQ(scheme.second_nearest(1, 0), 2u);
  EXPECT_EQ(scheme.second_nearest_cost(1, 0), 1.0);
  // Cell (3, 0): site 2's replica at cost 1 beats the primary at cost 3.
  EXPECT_EQ(scheme.nearest_site_at(1), 2u);
  EXPECT_EQ(scheme.nearest_cost_at(1), 1.0);
  EXPECT_EQ(scheme.second_nearest(3, 0), 0u);
  EXPECT_EQ(scheme.second_nearest_cost(3, 0), 3.0);

  scheme.remove(2, 0);
  EXPECT_EQ(scheme.nearest_site_at(1), 0u);
  EXPECT_EQ(scheme.nearest_cost_at(1), 3.0);
  EXPECT_EQ(scheme.second_nearest(3, 0), 0u);
  EXPECT_EQ(scheme.second_nearest_cost(3, 0), kInf);
  EXPECT_EQ(scheme.extra_replicas(), 0u);
  EXPECT_EQ(scheme.used(2), 0.0);
}

TEST(SparseReplicationScheme, AddIsIdempotentAndRemoveAbsentIsANoOp) {
  const Problem inst = tiny_instance();
  ReplicationScheme scheme(inst);
  scheme.add(1, 0);
  scheme.add(1, 0);
  EXPECT_EQ(scheme.replicas(0).size(), 2u);
  EXPECT_EQ(scheme.used(1), 2.0);
  EXPECT_NO_THROW(scheme.remove(2, 0));
  EXPECT_EQ(scheme.total_replicas(), 3u);
}

TEST(SparseReplicationScheme, RemovePrimaryThrows) {
  const Problem inst = tiny_instance();
  ReplicationScheme scheme(inst);
  EXPECT_THROW(scheme.remove(0, 0), std::invalid_argument);
  EXPECT_THROW(scheme.remove(3, 1), std::invalid_argument);
}

TEST(SparseReplicationScheme, CapacityMirrorsDensePolicy) {
  const Problem inst = tiny_instance();
  const Problem full_problem = inst.materialize();
  const ReplicationScheme partial(inst);
  const ReplicationScheme full(full_problem);
  for (SiteId i = 0; i < inst.sites(); ++i) {
    EXPECT_EQ(partial.capacity_slack(i), full.capacity_slack(i));
    EXPECT_EQ(partial.free_capacity(i), full.free_capacity(i));
    for (ObjectId k = 0; k < inst.objects(); ++k) {
      EXPECT_EQ(partial.fits(i, k), full.fits(i, k));
    }
  }
}

// The central differential: mirrored add/remove churn on schemes over the
// partial rows and over the full rows of one instance stays bit-identical —
// per-cell nearest and second-nearest, used ledgers, and the Eq. 4
// breakdown.
class SparseDenseChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseDenseChurn, MirroredChurnStaysBitIdentical) {
  workload::StreamConfig config;
  config.sites = 9;
  config.objects = 25;
  config.seed = GetParam();
  const Problem inst = workload::build_sparse_instance(config);
  const Problem full_problem = inst.materialize();

  ReplicationScheme partial(inst);
  ReplicationScheme full(full_problem);
  util::Rng rng(GetParam() * 17 + 5);
  for (int step = 0; step < 400; ++step) {
    const auto i = static_cast<SiteId>(rng.index(inst.sites()));
    const auto k = static_cast<ObjectId>(rng.index(inst.objects()));
    if (inst.primary(k) == i) continue;
    if (partial.has_replica(i, k)) {
      partial.remove(i, k);
      full.remove(i, k);
    } else {
      partial.add(i, k);
      full.add(i, k);
    }
    ASSERT_EQ(partial.has_replica(i, k), full.has_replica(i, k));
  }
  EXPECT_TRUE(audit::check_scheme(partial).empty());
  EXPECT_TRUE(audit::check_scheme(full).empty());
  EXPECT_TRUE(testing::compare_row_shapes(partial, full).empty());
  EXPECT_EQ(total_cost(partial), total_cost(full));
  EXPECT_EQ(total_cost_writer_view(partial), total_cost_writer_view(full));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseDenseChurn,
                         ::testing::Values(41, 42, 43, 44, 45, 46));

TEST(SparseCostKernels, PrimaryOnlyAndSavingsMatchDense) {
  workload::StreamConfig config;
  config.sites = 8;
  config.objects = 30;
  config.seed = 97;
  const Problem inst = workload::build_sparse_instance(config);
  const Problem full_problem = inst.materialize();
  EXPECT_EQ(primary_only_cost(inst), primary_only_cost(full_problem));

  const ReplicationScheme partial(inst);
  const ReplicationScheme full(full_problem);
  EXPECT_EQ(total_cost(partial), total_cost(full));
  const double cost = total_cost(partial);
  EXPECT_EQ(savings_fraction(inst, cost), savings_fraction(full_problem, cost));
  for (ObjectId k = 0; k < inst.objects(); ++k)
    EXPECT_EQ(object_cost(partial, k), object_cost(full, k));
}

// History independence for the demand-cell caches: identical replica sets
// reached through different orders (with decoy churn) agree bit-for-bit on
// every cached nearest entry, the second-nearest, the used ledger, and the
// total cost.
class SparseHistoryIndependence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseHistoryIndependence, CachesDependOnlyOnTheReplicaSet) {
  workload::StreamConfig config;
  config.sites = 7;
  config.objects = 20;
  config.seed = GetParam() ^ 0xABCD;
  const Problem inst = workload::build_sparse_instance(config);

  util::Rng rng(GetParam() * 29 + 11);
  std::vector<std::pair<SiteId, ObjectId>> target;
  for (SiteId i = 0; i < inst.sites(); ++i) {
    for (ObjectId k = 0; k < inst.objects(); ++k) {
      if (inst.primary(k) != i && rng.bernoulli(0.3)) target.push_back({i, k});
    }
  }

  ReplicationScheme a(inst);
  for (const auto& [i, k] : target) a.add(i, k);

  ReplicationScheme b(inst);
  std::vector<std::pair<SiteId, ObjectId>> shuffled(target);
  for (std::size_t t = shuffled.size(); t > 1; --t)
    std::swap(shuffled[t - 1], shuffled[rng.index(t)]);
  for (const auto& [i, k] : shuffled) {
    const auto di = static_cast<SiteId>(rng.index(inst.sites()));
    const auto dk = static_cast<ObjectId>(rng.index(inst.objects()));
    const bool decoy = inst.primary(dk) != di && (di != i || dk != k) &&
                       !b.has_replica(di, dk) && rng.bernoulli(0.5);
    if (decoy) b.add(di, dk);
    b.add(i, k);
    if (decoy) b.remove(di, dk);
  }

  for (ObjectId k = 0; k < inst.objects(); ++k)
    ASSERT_EQ(a.replicas(k), b.replicas(k));
  for (ObjectId k = 0; k < inst.objects(); ++k) {
    const auto sites = inst.demand_sites(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      const std::size_t z = inst.demand_begin(k) + j;
      EXPECT_EQ(a.nearest_site_at(z), b.nearest_site_at(z));
      EXPECT_EQ(a.nearest_cost_at(z), b.nearest_cost_at(z));
      EXPECT_EQ(a.second_nearest(sites[j], k), b.second_nearest(sites[j], k));
      EXPECT_EQ(a.second_nearest_cost(sites[j], k),
                b.second_nearest_cost(sites[j], k));
    }
  }
  for (SiteId i = 0; i < inst.sites(); ++i) EXPECT_EQ(a.used(i), b.used(i));
  EXPECT_EQ(total_cost(a), total_cost(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseHistoryIndependence,
                         ::testing::Values(51, 52, 53, 54, 55, 56));

}  // namespace
}  // namespace drep::core
