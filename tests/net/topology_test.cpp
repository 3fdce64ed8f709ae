#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace drep::net {
namespace {

TEST(CostMatrix, StartsWithZeroDiagonalAndInfElsewhere) {
  CostMatrix costs(3);
  for (SiteId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(costs.at(i, i), 0.0);
    for (SiteId j = 0; j < 3; ++j) {
      if (i != j) EXPECT_TRUE(std::isinf(costs.at(i, j)));
    }
  }
}

TEST(CostMatrix, SetIsSymmetric) {
  CostMatrix costs(3);
  costs.set(0, 2, 7.0);
  EXPECT_DOUBLE_EQ(costs.at(0, 2), 7.0);
  EXPECT_DOUBLE_EQ(costs.at(2, 0), 7.0);
}

TEST(CostMatrix, SetValidation) {
  CostMatrix costs(3);
  EXPECT_THROW(costs.set(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(costs.set(1, 1, 2.0), std::invalid_argument);
  costs.set(1, 1, 0.0);  // allowed no-op
  EXPECT_THROW(costs.set(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW((void)costs.at(3, 0), std::out_of_range);
}

TEST(CostMatrix, RowAccess) {
  CostMatrix costs(3);
  costs.set(1, 0, 4.0);
  costs.set(1, 2, 6.0);
  const auto row = costs.row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[1], 0.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(CostMatrix, RowSums) {
  CostMatrix costs(3);
  costs.set(0, 1, 1.0);
  costs.set(0, 2, 2.0);
  costs.set(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(costs.row_sum(0), 3.0);
  EXPECT_DOUBLE_EQ(costs.row_sum(1), 5.0);
  EXPECT_DOUBLE_EQ(costs.row_sum(2), 6.0);
  EXPECT_NEAR(costs.mean_row_sum(), 14.0 / 3.0, 1e-12);
}

TEST(CostMatrix, MetricDetection) {
  CostMatrix metric(3);
  metric.set(0, 1, 1.0);
  metric.set(1, 2, 1.0);
  metric.set(0, 2, 2.0);
  double violation = -1.0;
  EXPECT_TRUE(metric.is_metric(&violation));
  EXPECT_DOUBLE_EQ(violation, 0.0);

  CostMatrix broken(3);
  broken.set(0, 1, 1.0);
  broken.set(1, 2, 1.0);
  broken.set(0, 2, 5.0);  // 5 > 1 + 1
  EXPECT_FALSE(broken.is_metric(&violation));
  EXPECT_DOUBLE_EQ(violation, 3.0);
}

TEST(CostMatrix, InfiniteEntriesAreNotMetric) {
  CostMatrix costs(3);
  costs.set(0, 1, 1.0);
  // (0,2) and (1,2) still infinite.
  EXPECT_FALSE(costs.is_metric());
}

TEST(CostMatrix, SingleSiteIsTriviallyMetric) {
  CostMatrix costs(1);
  EXPECT_TRUE(costs.is_metric());
}

/// The plain is_metric: the entry checks, then the max-violation scan over
/// every (i, j, k), with no symmetry halving and no early exit. The
/// differential oracle for both the verdict and the reported maximum.
bool full_scan_is_metric(const CostMatrix& costs, double* max_violation) {
  const std::size_t m = costs.sites();
  double worst = 0.0;
  bool metric = true;
  for (SiteId i = 0; i < m && metric; ++i) {
    for (SiteId j = 0; j < m; ++j) {
      const double direct = costs.at(i, j);
      if (!std::isfinite(direct) || direct != costs.at(j, i) ||
          (i == j && direct != 0.0)) {
        metric = false;
        worst = std::numeric_limits<double>::infinity();
        break;
      }
    }
  }
  if (metric) {
    for (SiteId k = 0; k < m; ++k) {
      for (SiteId i = 0; i < m; ++i) {
        for (SiteId j = 0; j < m; ++j) {
          const double excess =
              costs.at(i, j) - (costs.at(i, k) + costs.at(k, j));
          if (excess > worst) worst = excess;
        }
      }
    }
    metric = worst <= 1e-9;
  }
  *max_violation = worst;
  return metric;
}

TEST(CostMatrix, MetricVerdictEqualsFullScan) {
  util::Rng rng(41);
  std::size_t verdicts[2] = {0, 0};
  for (std::size_t m = 1; m <= 64; ++m) {
    for (int variant = 0; variant < 4; ++variant) {
      // A metric built as shortest paths over random fractional links.
      CostMatrix costs(m);
      for (SiteId i = 0; i < m; ++i) {
        for (SiteId j = i + 1; j < m; ++j)
          costs.set(i, j, rng.uniform_real(0.5, 40.0));
      }
      for (SiteId k = 0; k < m; ++k) {
        for (SiteId i = 0; i < m; ++i) {
          for (SiteId j = i + 1; j < m; ++j) {
            const double via = costs.at(i, k) + costs.at(k, j);
            if (via < costs.at(i, j)) costs.set(i, j, via);
          }
        }
      }
      if (m >= 3 && variant == 1) {
        // Stretch one entry by about the 1e-9 slack past a two-hop path:
        // just inside, on the line, or just outside it.
        const auto i = static_cast<SiteId>(rng.index(m));
        auto j = static_cast<SiteId>(rng.index(m - 1));
        if (j >= i) ++j;
        auto k = static_cast<SiteId>(rng.index(m));
        while (k == i || k == j) k = static_cast<SiteId>(rng.index(m));
        const double slack[] = {0.5e-9, 1e-9, 1.5e-9, 4e-9};
        costs.set(i, j, costs.at(i, k) + costs.at(k, j) + slack[rng.index(4)]);
      } else if (m >= 2 && variant == 2) {
        // One missing link.
        const auto i = static_cast<SiteId>(rng.index(m));
        auto j = static_cast<SiteId>(rng.index(m - 1));
        if (j >= i) ++j;
        costs.set(i, j, std::numeric_limits<double>::infinity());
      } else if (m >= 2 && variant == 3) {
        // A gross violation.
        costs.set(0, static_cast<SiteId>(m - 1), 1e6);
      }
      double reference_worst = -1.0;
      const bool reference = full_scan_is_metric(costs, &reference_worst);
      EXPECT_EQ(costs.is_metric(), reference) << "m = " << m;
      double worst = -1.0;
      EXPECT_EQ(costs.is_metric(&worst), reference) << "m = " << m;
      EXPECT_EQ(worst, reference_worst) << "m = " << m;
      ++verdicts[reference ? 1 : 0];
    }
  }
  // Both verdicts were exercised.
  EXPECT_GT(verdicts[0], 50u);
  EXPECT_GT(verdicts[1], 50u);
}

TEST(Graph, AddEdgeValidation) {
  Graph graph(3);
  EXPECT_THROW(graph.add_edge(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(0, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(0, 1, -2.0), std::invalid_argument);
  graph.add_edge(0, 1, 1.5);
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(Graph, EdgesAreUndirected) {
  Graph graph(3);
  graph.add_edge(0, 2, 3.0);
  ASSERT_EQ(graph.neighbors(0).size(), 1u);
  ASSERT_EQ(graph.neighbors(2).size(), 1u);
  EXPECT_EQ(graph.neighbors(0)[0].to, 2u);
  EXPECT_EQ(graph.neighbors(2)[0].to, 0u);
  EXPECT_DOUBLE_EQ(graph.neighbors(0)[0].weight, 3.0);
}

TEST(Graph, Connectivity) {
  Graph graph(4);
  graph.add_edge(0, 1, 1.0);
  graph.add_edge(1, 2, 1.0);
  EXPECT_FALSE(graph.connected());
  graph.add_edge(2, 3, 1.0);
  EXPECT_TRUE(graph.connected());
}

TEST(Graph, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(Graph(0).connected());
  EXPECT_TRUE(Graph(1).connected());
}

}  // namespace
}  // namespace drep::net
