#include "core/problem.hpp"

#include <gtest/gtest.h>

#include "testing/builders.hpp"

namespace drep::core {
namespace {

net::CostMatrix unit_costs(std::size_t m) {
  net::CostMatrix costs(m);
  for (SiteId i = 0; i < m; ++i) {
    for (SiteId j = static_cast<SiteId>(i + 1); j < m; ++j) costs.set(i, j, 1.0);
  }
  return costs;
}

TEST(Problem, BasicAccessors) {
  Problem p(unit_costs(3), {5.0, 7.0}, {0, 2}, {100.0, 50.0, 25.0});
  EXPECT_EQ(p.sites(), 3u);
  EXPECT_EQ(p.objects(), 2u);
  EXPECT_DOUBLE_EQ(p.object_size(0), 5.0);
  EXPECT_DOUBLE_EQ(p.object_size(1), 7.0);
  EXPECT_EQ(p.primary(0), 0u);
  EXPECT_EQ(p.primary(1), 2u);
  EXPECT_DOUBLE_EQ(p.capacity(1), 50.0);
  EXPECT_DOUBLE_EQ(p.total_object_size(), 12.0);
  EXPECT_DOUBLE_EQ(p.cost(0, 1), 1.0);
}

TEST(Problem, ConstructorValidation) {
  EXPECT_THROW(Problem(unit_costs(2), {1.0}, {0}, {10.0, 10.0, 10.0}),
               std::invalid_argument);  // capacity / cost shape mismatch
  EXPECT_THROW(Problem(unit_costs(2), {1.0, 2.0}, {0}, {10.0, 10.0}),
               std::invalid_argument);  // sizes / primaries mismatch
  EXPECT_THROW(Problem(unit_costs(2), {0.0}, {0}, {10.0, 10.0}),
               std::invalid_argument);  // non-positive size
  EXPECT_THROW(Problem(unit_costs(2), {-1.0}, {0}, {10.0, 10.0}),
               std::invalid_argument);
  EXPECT_THROW(Problem(unit_costs(2), {1.0}, {2}, {10.0, 10.0}),
               std::invalid_argument);  // primary out of range
  EXPECT_THROW(Problem(unit_costs(2), {1.0}, {0}, {-5.0, 10.0}),
               std::invalid_argument);  // negative capacity
}

TEST(Problem, RequestsStartAtZero) {
  Problem p(unit_costs(2), {1.0}, {0}, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(p.reads(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.writes(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.total_reads(0), 0.0);
  EXPECT_DOUBLE_EQ(p.total_writes(0), 0.0);
  EXPECT_DOUBLE_EQ(p.total_requests(), 0.0);
}

TEST(Problem, SettersMaintainTotals) {
  Problem p(unit_costs(3), {1.0, 2.0}, {0, 1}, {10.0, 10.0, 10.0});
  p.set_reads(0, 0, 5.0);
  p.set_reads(1, 0, 3.0);
  p.set_writes(2, 1, 4.0);
  EXPECT_DOUBLE_EQ(p.total_reads(0), 8.0);
  EXPECT_DOUBLE_EQ(p.total_writes(1), 4.0);
  p.set_reads(0, 0, 1.0);  // overwrite shrinks the total
  EXPECT_DOUBLE_EQ(p.total_reads(0), 4.0);
  p.add_reads(0, 0, 2.5);
  EXPECT_DOUBLE_EQ(p.reads(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(p.total_reads(0), 6.5);
  p.add_writes(2, 1, -1.0);
  EXPECT_DOUBLE_EQ(p.total_writes(1), 3.0);
  EXPECT_DOUBLE_EQ(p.total_requests(), 6.5 + 3.0);
}

TEST(Problem, SettersRejectBadCounts) {
  Problem p(unit_costs(2), {1.0}, {0}, {10.0, 10.0});
  EXPECT_THROW(p.set_reads(0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(p.set_writes(0, 0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  p.set_reads(0, 0, 5.0);
  EXPECT_THROW(p.add_reads(0, 0, -6.0), std::invalid_argument);
  EXPECT_THROW(p.set_reads(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(p.set_reads(0, 1, 1.0), std::out_of_range);
}

TEST(Problem, ClearDemandZeroesCellsAndTotalsOnBothRowShapes) {
  // Object 0's row is full, object 1's lists sites 0 and 2 only.
  Problem p = testing::partial_row_problem(
      unit_costs(3), {1.0, 2.0}, {0, 1}, {10.0, 10.0, 10.0},
      {{{0, 1.5, 2.0}, {1, 3.0, 0.0}, {2, 0.25, 4.0}},
       {{0, 7.0, 1.0}, {2, 0.0, 9.5}}});
  p.clear_demand();
  EXPECT_EQ(p.demand_cells(), 5u);  // the row shapes stay
  for (const double count : p.demand_reads()) EXPECT_EQ(count, 0.0);
  for (const double count : p.demand_writes()) EXPECT_EQ(count, 0.0);
  for (ObjectId k = 0; k < 2; ++k) {
    EXPECT_EQ(p.total_reads(k), 0.0);
    EXPECT_EQ(p.total_writes(k), 0.0);
  }
  EXPECT_EQ(p.total_requests(), 0.0);
  p.add_reads(2, 1, 1.0);  // a stored cell still takes counts
  EXPECT_EQ(p.total_reads(1), 1.0);
  EXPECT_THROW(p.add_reads(1, 1, 1.0), std::invalid_argument);  // absent
}

TEST(Problem, ValidateChecksPinnedPrimaries) {
  // Two objects of size 6 pinned at site 0 with capacity 10: infeasible.
  Problem p(unit_costs(2), {6.0, 6.0}, {0, 0}, {10.0, 10.0});
  EXPECT_THROW(p.validate(), std::invalid_argument);
  Problem ok(unit_costs(2), {6.0, 6.0}, {0, 1}, {10.0, 10.0});
  EXPECT_NO_THROW(ok.validate());
}

TEST(Problem, ValidateChecksMetric) {
  net::CostMatrix costs(3);
  costs.set(0, 1, 1.0);
  costs.set(1, 2, 1.0);
  costs.set(0, 2, 10.0);  // violates triangle inequality
  Problem p(std::move(costs), {1.0}, {0}, {10.0, 10.0, 10.0});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Problem, CopyIsIndependent) {
  Problem a = testing::line3_problem();
  a.set_reads(1, 0, 9.0);
  Problem b = a;
  b.set_reads(1, 0, 1.0);
  EXPECT_DOUBLE_EQ(a.reads(1, 0), 9.0);
  EXPECT_DOUBLE_EQ(b.reads(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.total_reads(0), 9.0);
  EXPECT_DOUBLE_EQ(b.total_reads(0), 1.0);
}

}  // namespace
}  // namespace drep::core
