// Partial demand rows of core::Problem: construction rules, point lookups,
// materialization to full rows, validation, and the absent-cell contract.

#include "core/problem.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/topology.hpp"
#include "testing/builders.hpp"

namespace drep::core {
namespace {

using Rows = std::vector<std::vector<DemandEntry>>;

net::CostMatrix line_costs(std::size_t m) {
  net::CostMatrix costs(m);
  for (net::SiteId i = 0; i < m; ++i) {
    for (net::SiteId j = static_cast<net::SiteId>(i + 1); j < m; ++j) {
      costs.set(i, j, static_cast<double>(j - i));
    }
  }
  return costs;
}

Problem small_instance() {
  const Rows rows{{{0, 2.0, 1.0}, {2, 5.0, 0.0}}, {{1, 4.0, 2.0}}};
  Problem inst = testing::partial_row_problem(line_costs(3), {2.0, 3.0},
                                              {0, 1}, {10.0, 10.0, 10.0}, rows);
  inst.validate();
  return inst;
}

TEST(SparseInstance, ShapeAndAccessors) {
  const Problem inst = small_instance();
  EXPECT_EQ(inst.sites(), 3u);
  EXPECT_EQ(inst.objects(), 2u);
  EXPECT_EQ(inst.demand_cells(), 3u);
  EXPECT_EQ(inst.object_size(0), 2.0);
  EXPECT_EQ(inst.primary(1), 1u);
  EXPECT_EQ(inst.capacity(2), 10.0);
  EXPECT_EQ(inst.total_object_size(), 5.0);
  EXPECT_EQ(inst.cost(0, 2), 2.0);
}

TEST(SparseInstance, DemandRowsAndPointLookups) {
  const Problem inst = small_instance();
  EXPECT_EQ(inst.demand_begin(0), 0u);
  EXPECT_EQ(inst.demand_end(0), 2u);
  EXPECT_EQ(inst.demand_begin(1), 2u);
  EXPECT_EQ(inst.demand_end(1), 3u);
  const auto row0 = inst.demand_sites(0);
  EXPECT_EQ(std::vector<SiteId>(row0.begin(), row0.end()),
            (std::vector<SiteId>{0, 2}));
  EXPECT_EQ(inst.demand_index(2, 0), 1u);
  EXPECT_EQ(inst.demand_index(1, 0), Problem::kAbsent);
  EXPECT_EQ(inst.reads(0, 0), 2.0);
  EXPECT_EQ(inst.reads(2, 0), 5.0);
  EXPECT_EQ(inst.reads(1, 0), 0.0);  // absent cell
  EXPECT_EQ(inst.writes(0, 0), 1.0);
  EXPECT_EQ(inst.writes(2, 0), 0.0);
  EXPECT_EQ(inst.writes(1, 1), 2.0);
  EXPECT_EQ(inst.total_reads(0), 7.0);
  EXPECT_EQ(inst.total_writes(0), 1.0);
  EXPECT_EQ(inst.total_reads(1), 4.0);
  EXPECT_THROW((void)inst.reads(3, 0), std::out_of_range);
  EXPECT_THROW((void)inst.writes(0, 2), std::out_of_range);
}

TEST(SparseInstance, MaterializeProducesTheSameInstanceDense) {
  const Problem inst = small_instance();
  const Problem dense = inst.materialize();
  ASSERT_EQ(dense.sites(), inst.sites());
  ASSERT_EQ(dense.objects(), inst.objects());
  EXPECT_EQ(dense.demand_cells(), dense.sites() * dense.objects());
  for (SiteId i = 0; i < inst.sites(); ++i) {
    EXPECT_EQ(dense.capacity(i), inst.capacity(i));
    for (ObjectId k = 0; k < inst.objects(); ++k) {
      EXPECT_EQ(dense.demand_index(i, k), dense.demand_begin(k) + i);
      EXPECT_EQ(dense.reads(i, k), inst.reads(i, k));
      EXPECT_EQ(dense.writes(i, k), inst.writes(i, k));
    }
  }
  for (ObjectId k = 0; k < inst.objects(); ++k) {
    const auto row = dense.demand_sites(k);
    EXPECT_EQ(std::vector<SiteId>(row.begin(), row.end()),
              (std::vector<SiteId>{0, 1, 2}));
    EXPECT_EQ(dense.object_size(k), inst.object_size(k));
    EXPECT_EQ(dense.primary(k), inst.primary(k));
    EXPECT_EQ(dense.total_reads(k), inst.total_reads(k));
    EXPECT_EQ(dense.total_writes(k), inst.total_writes(k));
  }
}

TEST(SparseInstance, ConstructorRejectsBadShapesAndValues) {
  const Rows one{{}};
  const Rows two{{}, {}};
  const auto build = [](std::size_t m, std::vector<double> sizes,
                        std::vector<SiteId> primaries,
                        std::vector<double> caps, const Rows& rows) {
    return testing::partial_row_problem(line_costs(m), std::move(sizes),
                                        std::move(primaries), std::move(caps),
                                        rows);
  };
  EXPECT_THROW(build(2, {1.0}, {0}, {10.0, 10.0, 10.0}, one),
               std::invalid_argument);  // costs 2x2 vs 3 capacities
  EXPECT_THROW(build(2, {1.0, 1.0}, {0}, {10.0, 10.0}, two),
               std::invalid_argument);  // primaries length mismatch
  EXPECT_THROW(build(2, {0.0}, {0}, {10.0, 10.0}, one),
               std::invalid_argument);  // non-positive size
  EXPECT_THROW(build(2, {1.0}, {2}, {10.0, 10.0}, one),
               std::invalid_argument);  // primary out of range
  EXPECT_THROW(build(2, {1.0}, {0}, {10.0, -1.0}, one),
               std::invalid_argument);  // negative capacity
}

TEST(SparseInstance, PushEnforcesAscendingObjectsAndSites) {
  // Rows are requested once per object, in ascending object order.
  std::vector<ObjectId> asked;
  const Problem inst(line_costs(3), {1.0, 1.0, 1.0}, {0, 0, 0},
                     {10.0, 10.0, 10.0}, [&asked](ObjectId k) {
                       asked.push_back(k);
                       return std::vector<DemandEntry>{{1, 1.0, 0.0}};
                     });
  EXPECT_EQ(asked, (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_EQ(inst.demand_cells(), 3u);

  const auto build = [](const Rows& rows) {
    return testing::partial_row_problem(line_costs(3), {1.0, 1.0}, {0, 0},
                                        {10.0, 10.0, 10.0}, rows);
  };
  const std::vector<DemandEntry> row{{1, 1.0, 0.0}};
  EXPECT_NO_THROW(build({row, row}));
  EXPECT_THROW(build({row, {{2, 1.0, 0.0}, {1, 1.0, 0.0}}}),
               std::invalid_argument);  // descending
  EXPECT_THROW(build({row, {{1, 1.0, 0.0}, {1, 2.0, 0.0}}}),
               std::invalid_argument);  // duplicate
  EXPECT_THROW(build({row, {{3, 1.0, 0.0}}}),
               std::invalid_argument);  // site out of range
  EXPECT_THROW(build({row, {{1, -1.0, 0.0}}}),
               std::invalid_argument);  // negative count
}

TEST(SparseInstance, ValidateRequiresAllRowsAndFeasiblePrimaries) {
  // Every row is supplied at construction, so a built instance always has
  // all of them; feasibility of the pinned primaries is validate()'s job.
  const std::vector<DemandEntry> row{{1, 1.0, 0.0}};
  const Problem feasible = testing::partial_row_problem(
      line_costs(2), {1.0, 1.0}, {0, 0}, {10.0, 10.0}, {row, row});
  EXPECT_EQ(feasible.demand_end(1), 2u);
  EXPECT_NO_THROW(feasible.validate());

  // Site 0 is pinned with 5.0 of primaries but only has capacity 3.0.
  const Problem overfull = testing::partial_row_problem(
      line_costs(2), {2.0, 3.0}, {0, 0}, {3.0, 10.0}, {row, row});
  EXPECT_THROW(overfull.validate(), std::invalid_argument);
}

TEST(SparseInstance, EmptyDemandRowsAreAllowed) {
  const Problem inst = testing::partial_row_problem(line_costs(2), {1.0}, {0},
                                                    {10.0, 10.0}, {{}});
  EXPECT_NO_THROW(inst.validate());
  EXPECT_EQ(inst.demand_cells(), 0u);
  EXPECT_EQ(inst.total_reads(0), 0.0);
}

// Regression: an unreachable site (a +inf cost left at the CostMatrix
// default fill) used to pass the partial-row validate(), after which SRA
// returned cost and savings NaN. validate() now runs the metric check on
// every instance.
TEST(SparseInstance, ValidateRejectsAnUnreachableSite) {
  net::CostMatrix costs(3);  // off-diagonal cells default to +inf
  costs.set(0, 1, 1.0);
  const Problem inst = testing::partial_row_problem(
      std::move(costs), {1.0}, {0}, {10.0, 10.0, 10.0},
      {{{0, 1.0, 0.0}, {2, 5.0, 0.0}}});
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(SparseInstance, AbsentCellsReadZeroAndRefuseWrites) {
  Problem inst = small_instance();
  ASSERT_EQ(inst.demand_index(1, 0), Problem::kAbsent);
  EXPECT_THROW(inst.set_reads(1, 0, 3.0), std::invalid_argument);
  EXPECT_THROW(inst.set_writes(1, 0, 3.0), std::invalid_argument);
  EXPECT_THROW(inst.add_reads(1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(inst.add_writes(2, 1, 1.0), std::invalid_argument);
  EXPECT_EQ(inst.reads(1, 0), 0.0);
  EXPECT_EQ(inst.writes(1, 0), 0.0);
  EXPECT_EQ(inst.total_reads(0), 7.0);
  EXPECT_EQ(inst.total_writes(0), 1.0);
  EXPECT_EQ(inst.total_writes(1), 2.0);
  EXPECT_EQ(inst.demand_cells(), 3u);

  // Stored cells stay writable, zero or not.
  inst.set_reads(2, 0, 1.0);
  inst.add_writes(2, 0, 4.0);
  EXPECT_EQ(inst.total_reads(0), 3.0);
  EXPECT_EQ(inst.total_writes(0), 5.0);
}

}  // namespace
}  // namespace drep::core
