#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "testing/builders.hpp"
#include "workload/generator.hpp"
#include "workload/stream_gen.hpp"

namespace drep::workload {
namespace {

TEST(Trace, CountsMatchRequestMatricesExactly) {
  const core::Problem p = testing::small_random_problem(1);
  util::Rng rng(2);
  const std::vector<Request> trace = build_trace(p, rng);
  EXPECT_EQ(trace.size(), trace_size(p));

  std::map<std::tuple<core::SiteId, core::ObjectId, bool>, double> counts;
  for (const Request& r : trace) counts[{r.site, r.object, r.is_write}] += 1.0;
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    for (core::ObjectId k = 0; k < p.objects(); ++k) {
      EXPECT_DOUBLE_EQ((counts[{i, k, false}]), p.reads(i, k));
      EXPECT_DOUBLE_EQ((counts[{i, k, true}]), p.writes(i, k));
    }
  }
}

TEST(Trace, ShuffleIsDeterministicPerSeed) {
  const core::Problem p = testing::small_random_problem(3);
  util::Rng rng_a(7), rng_b(7), rng_c(8);
  const auto a = build_trace(p, rng_a);
  const auto b = build_trace(p, rng_b);
  const auto c = build_trace(p, rng_c);
  ASSERT_EQ(a.size(), b.size());
  bool identical_ab = true, identical_ac = true;
  for (std::size_t idx = 0; idx < a.size(); ++idx) {
    identical_ab &= a[idx].site == b[idx].site &&
                    a[idx].object == b[idx].object &&
                    a[idx].is_write == b[idx].is_write;
    identical_ac &= a[idx].site == c[idx].site &&
                    a[idx].object == c[idx].object &&
                    a[idx].is_write == c[idx].is_write;
  }
  EXPECT_TRUE(identical_ab);
  EXPECT_FALSE(identical_ac);
}

/// build_trace's output counted into a cleared copy reproduces every cell
/// and both totals of the instance it was built from, bit for bit.
void expect_round_trip(const core::Problem& p) {
  util::Rng rng(5);
  const std::vector<Request> trace = build_trace(p, rng);
  core::Problem counted = p;
  counted.clear_demand();
  count_requests(trace, counted);
  ASSERT_EQ(counted.demand_cells(), p.demand_cells());
  for (std::size_t z = 0; z < p.demand_cells(); ++z) {
    EXPECT_EQ(counted.demand_reads()[z], p.demand_reads()[z]) << z;
    EXPECT_EQ(counted.demand_writes()[z], p.demand_writes()[z]) << z;
  }
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    EXPECT_EQ(counted.total_reads(k), p.total_reads(k)) << k;
    EXPECT_EQ(counted.total_writes(k), p.total_writes(k)) << k;
  }
}

TEST(Trace, CountRequestsRoundTripsOnEveryRowShape) {
  StreamConfig config;
  config.sites = 12;
  config.objects = 200;
  config.seed = 3;
  const core::Problem partial = build_sparse_instance(config);
  ASSERT_LT(partial.demand_cells(), partial.sites() * partial.objects());
  expect_round_trip(partial);
  expect_round_trip(materialize_problem(config));
  expect_round_trip(testing::small_random_problem(4, 10, 30));
}

TEST(Trace, CountRequestsRejectsAbsentCellsAndOutOfRangeIds) {
  StreamConfig config;
  config.sites = 12;
  config.objects = 200;
  config.seed = 3;
  core::Problem partial = build_sparse_instance(config);
  // The first site object 0's row does not list.
  const auto row = partial.demand_sites(0);
  core::SiteId absent = 0;
  while (std::find(row.begin(), row.end(), absent) != row.end()) ++absent;
  ASSERT_LT(absent, partial.sites());
  const std::vector<Request> bad_cell = {{absent, 0, false}};
  EXPECT_THROW(count_requests(bad_cell, partial), std::invalid_argument);

  core::Problem full = testing::line3_problem();
  const std::vector<Request> bad_site = {{3, 0, true}};
  EXPECT_THROW(count_requests(bad_site, full), std::out_of_range);
  const std::vector<Request> bad_object = {{0, 1, false}};
  EXPECT_THROW(count_requests(bad_object, full), std::out_of_range);
}

TEST(Trace, RejectsFractionalCounts) {
  core::Problem p = testing::line3_problem();
  p.set_reads(1, 0, 2.5);
  util::Rng rng(1);
  EXPECT_THROW((void)build_trace(p, rng), std::invalid_argument);
}

TEST(Trace, EmptyPatternsGiveEmptyTrace) {
  const core::Problem p = testing::line3_problem();
  util::Rng rng(1);
  EXPECT_TRUE(build_trace(p, rng).empty());
  EXPECT_EQ(trace_size(p), 0u);
}

TEST(Trace, SizeMatchesTotals) {
  const core::Problem p = testing::small_random_problem(4);
  double expected = 0.0;
  for (core::ObjectId k = 0; k < p.objects(); ++k)
    expected += p.total_reads(k) + p.total_writes(k);
  EXPECT_EQ(trace_size(p), static_cast<std::size_t>(expected));
}

}  // namespace
}  // namespace drep::workload
