#include "net/shortest_paths.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "net/generators.hpp"
#include "util/rng.hpp"

namespace drep::net {
namespace {

Graph diamond() {
  // 0 -1- 1 -1- 3, 0 -5- 2 -1- 3: shortest 0->3 is 2 via 1.
  Graph graph(4);
  graph.add_edge(0, 1, 1.0);
  graph.add_edge(1, 3, 1.0);
  graph.add_edge(0, 2, 5.0);
  graph.add_edge(2, 3, 1.0);
  return graph;
}

TEST(Dijkstra, KnownDistances) {
  const auto dist = dijkstra(diamond(), 0);
  ASSERT_EQ(dist.size(), 4u);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 3.0);  // via 1,3 (1+1+1) beats direct 5
  EXPECT_DOUBLE_EQ(dist[3], 2.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph graph(3);
  graph.add_edge(0, 1, 1.0);
  const auto dist = dijkstra(graph, 0);
  EXPECT_TRUE(std::isinf(dist[2]));
}

TEST(Dijkstra, SourceOutOfRangeThrows) {
  EXPECT_THROW((void)dijkstra(Graph(2), 2), std::invalid_argument);
}

TEST(AllPairs, DijkstraMatchesFloydWarshall) {
  util::Rng rng(42);
  for (int instance = 0; instance < 5; ++instance) {
    const Graph graph = random_connected_graph(20, 0.2, 1, 10, rng);
    const CostMatrix a = all_pairs_dijkstra(graph);
    const CostMatrix b = floyd_warshall(graph);
    for (SiteId i = 0; i < 20; ++i) {
      for (SiteId j = 0; j < 20; ++j) {
        EXPECT_NEAR(a.at(i, j), b.at(i, j), 1e-9)
            << "instance " << instance << " pair " << i << "," << j;
      }
    }
  }
}

TEST(AllPairs, DisconnectedThrows) {
  Graph graph(3);
  graph.add_edge(0, 1, 1.0);
  EXPECT_THROW((void)all_pairs_dijkstra(graph), std::invalid_argument);
  EXPECT_THROW((void)floyd_warshall(graph), std::invalid_argument);
}

TEST(AllPairs, ResultIsMetric) {
  util::Rng rng(7);
  const Graph graph = random_connected_graph(15, 0.3, 1, 10, rng);
  EXPECT_TRUE(floyd_warshall(graph).is_metric());
}

TEST(MetricClosure, ShortcutsExpensiveDirectLinks) {
  CostMatrix costs(3);
  costs.set(0, 1, 2.0);
  costs.set(1, 2, 3.0);
  costs.set(0, 2, 10.0);
  const CostMatrix closed = metric_closure(costs);
  EXPECT_DOUBLE_EQ(closed.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(closed.at(0, 1), 2.0);
  EXPECT_TRUE(closed.is_metric());
}

TEST(MetricClosure, IsIdempotent) {
  util::Rng rng(9);
  const CostMatrix once = paper_cost_matrix(12, rng);
  const CostMatrix twice = metric_closure(once);
  for (SiteId i = 0; i < 12; ++i) {
    for (SiteId j = 0; j < 12; ++j) {
      EXPECT_DOUBLE_EQ(once.at(i, j), twice.at(i, j));
    }
  }
}

TEST(MinimumSpanningTree, PathGraphIsItself) {
  CostMatrix costs(3);
  costs.set(0, 1, 1.0);
  costs.set(1, 2, 1.0);
  costs.set(0, 2, 5.0);
  const Graph mst = minimum_spanning_tree(costs);
  EXPECT_EQ(mst.edge_count(), 2u);
  EXPECT_TRUE(mst.connected());
  double total = 0.0;
  for (SiteId v = 0; v < 3; ++v) {
    for (const Edge& e : mst.neighbors(v)) total += e.weight;
  }
  EXPECT_DOUBLE_EQ(total / 2.0, 2.0);  // edges 0-1 and 1-2
}

TEST(MinimumSpanningTree, WeightIsMinimal) {
  util::Rng rng(21);
  const CostMatrix costs = paper_cost_matrix(12, rng);
  const Graph mst = minimum_spanning_tree(costs);
  EXPECT_EQ(mst.edge_count(), 11u);
  EXPECT_TRUE(mst.connected());
  double mst_weight = 0.0;
  for (SiteId v = 0; v < 12; ++v) {
    for (const Edge& e : mst.neighbors(v)) mst_weight += e.weight;
  }
  mst_weight /= 2.0;
  // Any random spanning tree drawn from the same matrix weighs at least as
  // much.
  for (int trial = 0; trial < 10; ++trial) {
    double other = 0.0;
    std::vector<SiteId> order(12);
    for (SiteId v = 0; v < 12; ++v) order[v] = v;
    rng.shuffle(order);
    for (std::size_t v = 1; v < order.size(); ++v) {
      other += costs.at(order[v], order[rng.index(v)]);
    }
    EXPECT_LE(mst_weight, other + 1e-9);
  }
}

TEST(MinimumSpanningTree, Validation) {
  EXPECT_THROW((void)minimum_spanning_tree(CostMatrix(0)),
               std::invalid_argument);
  CostMatrix unreachable(3);
  unreachable.set(0, 1, 1.0);  // (x,2) stays infinite
  EXPECT_THROW((void)minimum_spanning_tree(unreachable),
               std::invalid_argument);
  EXPECT_EQ(minimum_spanning_tree(CostMatrix(1)).sites(), 1u);
}

TEST(MetricClosure, NeverIncreasesCosts) {
  util::Rng rng(10);
  const CostMatrix raw = paper_cost_matrix(12, rng, 1, 10, /*apply_closure=*/false);
  const CostMatrix closed = metric_closure(raw);
  for (SiteId i = 0; i < 12; ++i) {
    for (SiteId j = 0; j < 12; ++j) {
      EXPECT_LE(closed.at(i, j), raw.at(i, j));
    }
  }
}

/// metric_closure as it was before it ran over raw rows: bounds-checked
/// at()/set(), every improvement written to both (i,j) and (j,i). Kept as
/// the differential oracle.
CostMatrix checked_closure(const CostMatrix& costs) {
  const std::size_t m = costs.sites();
  CostMatrix closed = costs;
  for (SiteId k = 0; k < m; ++k) {
    for (SiteId i = 0; i < m; ++i) {
      const double ik = closed.at(i, k);
      if (!std::isfinite(ik)) continue;
      for (SiteId j = 0; j < m; ++j) {
        const double via = ik + closed.at(k, j);
        if (via < closed.at(i, j)) closed.set(i, j, via);
      }
    }
  }
  return closed;
}

TEST(MetricClosure, EqualsCheckedReferenceBitForBit) {
  util::Rng rng(31);
  for (std::size_t m = 1; m <= 64; ++m) {
    // Fractional link costs, some links missing (+inf), the sparsest
    // graphs left disconnected.
    const double missing = m % 3 == 0 ? 0.9 : 0.3;
    CostMatrix raw(m);
    for (SiteId i = 0; i < m; ++i) {
      for (SiteId j = i + 1; j < m; ++j) {
        if (!rng.bernoulli(missing)) raw.set(i, j, rng.uniform_real(0.01, 50.0));
      }
    }
    const CostMatrix closed = metric_closure(raw);
    const CostMatrix reference = checked_closure(raw);
    std::size_t mismatches = 0;
    for (SiteId i = 0; i < m; ++i) {
      for (SiteId j = 0; j < m; ++j) {
        const double got = closed.at(i, j);
        const double want = reference.at(i, j);
        // Bitwise equal, +inf included.
        if (!(got == want || (std::isinf(got) && std::isinf(want))))
          ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "m = " << m;
  }
}

}  // namespace
}  // namespace drep::net
