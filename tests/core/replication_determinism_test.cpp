// Determinism contracts of the nearest-replica cache: the lex (cost, site
// id) tie-break, the second-nearest derived from R_k, and full
// history-independence — every cached value is a pure function of the
// replica SET, never of the add/remove order that produced it.

#include "core/replication.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/cost_model.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace drep::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CloserReplica, LexOrderOnCostThenSiteId) {
  EXPECT_TRUE(closer_replica(1.0, 5, 2.0, 0));
  EXPECT_FALSE(closer_replica(2.0, 0, 1.0, 5));
  // Equal costs: the lower site id wins.
  EXPECT_TRUE(closer_replica(1.0, 2, 1.0, 7));
  EXPECT_FALSE(closer_replica(1.0, 7, 1.0, 2));
  // Identical (cost, id) is not strictly closer.
  EXPECT_FALSE(closer_replica(1.0, 3, 1.0, 3));
  static_assert(closer_replica(0.0, 1, 0.0, 2));
}

// Regression: with replicas at sites 1 and 3, site 2 is equidistant from
// both. The pre-fix cache kept whichever replica happened to be installed
// first; the lex tie-break pins the lowest site id regardless of order.
TEST(ReplicationScheme, EquidistantTieBreaksToLowestSiteId) {
  const Problem p = testing::line_problem(5, 1, 4.0, 1000.0);

  ReplicationScheme low_first(p);
  low_first.add(1, 0);
  low_first.add(3, 0);
  ReplicationScheme high_first(p);
  high_first.add(3, 0);
  high_first.add(1, 0);

  EXPECT_EQ(low_first.nearest(2, 0), 1u);
  EXPECT_EQ(high_first.nearest(2, 0), 1u);
  EXPECT_EQ(low_first.nearest_cost(2, 0), 1.0);
  EXPECT_EQ(high_first.nearest_cost(2, 0), 1.0);
  // The runner-up is the higher equidistant site in both histories.
  EXPECT_EQ(low_first.second_nearest(2, 0), 3u);
  EXPECT_EQ(high_first.second_nearest(2, 0), 3u);
}

TEST(ReplicationScheme, RemoveRepairsNearestWithTieBreak) {
  const Problem p = testing::line_problem(5, 1, 4.0, 1000.0);
  ReplicationScheme scheme(p);
  scheme.add(3, 0);
  scheme.add(2, 0);
  scheme.add(1, 0);
  ASSERT_EQ(scheme.nearest(2, 0), 2u);
  // Removing site 2's replica leaves {0, 1, 3}; sites 1 and 3 tie at cost 1
  // from site 2, so the repaired nearest must be the lower id.
  scheme.remove(2, 0);
  EXPECT_EQ(scheme.nearest(2, 0), 1u);
  EXPECT_EQ(scheme.nearest_cost(2, 0), 1.0);
  EXPECT_EQ(scheme.second_nearest(2, 0), 3u);
  EXPECT_EQ(scheme.second_nearest_cost(2, 0), 1.0);
}

TEST(ReplicationScheme, SecondNearestSentinelWhileSingleReplica) {
  const Problem p = testing::line3_problem(10.0);
  ReplicationScheme scheme(p);
  EXPECT_EQ(scheme.second_nearest(2, 0), p.primary(0));
  EXPECT_EQ(scheme.second_nearest_cost(2, 0), kInf);
  scheme.add(1, 0);
  EXPECT_EQ(scheme.second_nearest(2, 0), 0u);  // primary at distance 2
  EXPECT_EQ(scheme.second_nearest_cost(2, 0), 2.0);
  scheme.remove(1, 0);
  EXPECT_EQ(scheme.second_nearest(2, 0), p.primary(0));
  EXPECT_EQ(scheme.second_nearest_cost(2, 0), kInf);
}

// Property: after randomized churn, the cached nearest and the derived
// second-nearest equal the exact lex (cost, site id) top-2 recomputed from
// scratch over the replica list.
class SecondNearestProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SecondNearestProperty, CacheMatchesBruteForceLexTop2) {
  const Problem p = testing::small_random_problem(GetParam());
  ReplicationScheme scheme(p);
  util::Rng rng(GetParam() * 101 + 13);
  for (int step = 0; step < 300; ++step) {
    const auto i = static_cast<SiteId>(rng.index(p.sites()));
    const auto k = static_cast<ObjectId>(rng.index(p.objects()));
    if (rng.bernoulli(0.55)) {
      scheme.add(i, k);
    } else if (p.primary(k) != i) {
      scheme.remove(i, k);
    }
  }
  for (SiteId i = 0; i < p.sites(); ++i) {
    for (ObjectId k = 0; k < p.objects(); ++k) {
      double best_c = kInf, sec_c = kInf;
      SiteId best_s = p.primary(k), sec_s = p.primary(k);
      for (SiteId rep : scheme.replicas(k)) {
        const double c = p.cost(i, rep);
        if (closer_replica(c, rep, best_c, best_s)) {
          sec_c = best_c;
          sec_s = best_s;
          best_c = c;
          best_s = rep;
        } else if (closer_replica(c, rep, sec_c, sec_s)) {
          sec_c = c;
          sec_s = rep;
        }
      }
      EXPECT_EQ(scheme.nearest(i, k), best_s);
      EXPECT_EQ(scheme.nearest_cost(i, k), best_c);
      EXPECT_EQ(scheme.second_nearest_cost(i, k), sec_c);
      EXPECT_EQ(scheme.second_nearest(i, k),
                sec_c == kInf ? p.primary(k) : sec_s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecondNearestProperty,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// History independence: two schemes that end at the same replica SET via
// totally different add/remove orders (one of them churning decoy replicas
// in and back out) must agree bit-for-bit on every cached value — nearest
// and second indices and costs, the used ledger (integral sizes keep the
// += / -= arithmetic exact), and the Eq. 4 total.
class HistoryIndependence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistoryIndependence, CachesAreAPureFunctionOfTheReplicaSet) {
  // Integral sizes and costs; reads/writes only shape total_cost.
  Problem p = testing::line_problem(7, 9, 4.0, 1000.0);
  util::Rng pattern_rng(GetParam());
  for (SiteId i = 0; i < p.sites(); ++i) {
    for (ObjectId k = 0; k < p.objects(); ++k) {
      if (pattern_rng.bernoulli(0.4))
        p.set_reads(i, k, static_cast<double>(pattern_rng.uniform_u64(1, 30)));
      if (pattern_rng.bernoulli(0.2))
        p.set_writes(i, k, static_cast<double>(pattern_rng.uniform_u64(1, 5)));
    }
  }

  // Draw the target replica set.
  util::Rng rng(GetParam() * 77 + 3);
  std::vector<std::pair<SiteId, ObjectId>> target;
  for (SiteId i = 0; i < p.sites(); ++i) {
    for (ObjectId k = 0; k < p.objects(); ++k) {
      if (p.primary(k) != i && rng.bernoulli(0.35)) target.push_back({i, k});
    }
  }

  // History A: ascending insertion.
  ReplicationScheme a(p);
  for (const auto& [i, k] : target) a.add(i, k);

  // History B: shuffled insertion interleaved with decoy add/remove churn.
  ReplicationScheme b(p);
  std::vector<std::pair<SiteId, ObjectId>> shuffled(target);
  for (std::size_t t = shuffled.size(); t > 1; --t)
    std::swap(shuffled[t - 1], shuffled[rng.index(t)]);
  for (const auto& [i, k] : shuffled) {
    if (rng.bernoulli(0.5)) {
      const auto di = static_cast<SiteId>(rng.index(p.sites()));
      const auto dk = static_cast<ObjectId>(rng.index(p.objects()));
      if (p.primary(dk) != di && (di != i || dk != k) &&
          !b.has_replica(di, dk)) {
        b.add(di, dk);
        b.add(i, k);
        b.remove(di, dk);
        continue;
      }
    }
    b.add(i, k);
  }

  ASSERT_EQ(a.matrix(), b.matrix());
  for (SiteId i = 0; i < p.sites(); ++i) {
    EXPECT_EQ(a.used(i), b.used(i));
    for (ObjectId k = 0; k < p.objects(); ++k) {
      EXPECT_EQ(a.nearest(i, k), b.nearest(i, k));
      EXPECT_EQ(a.nearest_cost(i, k), b.nearest_cost(i, k));
      EXPECT_EQ(a.second_nearest(i, k), b.second_nearest(i, k));
      EXPECT_EQ(a.second_nearest_cost(i, k), b.second_nearest_cost(i, k));
    }
  }
  EXPECT_EQ(total_cost(a), total_cost(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryIndependence,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38));

}  // namespace
}  // namespace drep::core
