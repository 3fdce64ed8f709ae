// The audit validators themselves: clean structures produce no violations,
// corrupted ones are caught, and enforce() reports every violation at once.

#include "audit/invariants.hpp"

#include <gtest/gtest.h>

#include "algo/sra.hpp"
#include "core/availability.hpp"
#include "core/benefit.hpp"
#include "core/cost_model.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"
#include "workload/stream_gen.hpp"

namespace drep {
namespace {

TEST(AuditEnforce, EmptyListIsANoOp) {
  EXPECT_NO_THROW(audit::enforce({}, "nowhere"));
}

TEST(AuditEnforce, ThrowsWithEveryViolationListed) {
  audit::Violations violations{{"a.first", "detail one"},
                               {"b.second", "detail two"}};
  try {
    audit::enforce(violations, "test/site");
    FAIL() << "enforce did not throw";
  } catch (const audit::AuditFailure& failure) {
    EXPECT_EQ(failure.violations().size(), 2u);
    const std::string what = failure.what();
    EXPECT_NE(what.find("test/site"), std::string::npos);
    EXPECT_NE(what.find("a.first"), std::string::npos);
    EXPECT_NE(what.find("detail two"), std::string::npos);
  }
}

TEST(AuditMerge, ConcatenatesInOrder) {
  const audit::Violations merged =
      audit::merge({{"x", "1"}}, {{"y", "2"}, {"z", "3"}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].invariant, "x");
  EXPECT_EQ(merged[2].invariant, "z");
}

TEST(AuditCheckScheme, CleanAfterRandomChurn) {
  const core::Problem problem = testing::small_random_problem(11);
  core::ReplicationScheme scheme(problem);
  util::Rng rng(7);
  for (int step = 0; step < 500; ++step) {
    const auto i = static_cast<core::SiteId>(rng.index(problem.sites()));
    const auto k = static_cast<core::ObjectId>(rng.index(problem.objects()));
    if (problem.primary(k) == i) continue;
    if (scheme.has_replica(i, k)) {
      scheme.remove(i, k);
    } else {
      scheme.add(i, k);
    }
  }
  EXPECT_TRUE(audit::check_scheme(scheme).empty());
}

TEST(AuditCheckSparseScheme, CleanAfterMirroredChurn) {
  // check_scheme walks demand rows, so it audits a scheme over the partial
  // rows of a streamed instance exactly as it does a full-row one.
  workload::StreamConfig config;
  config.sites = 8;
  config.objects = 20;
  config.seed = 55;
  const core::Problem inst = workload::build_sparse_instance(config);
  core::ReplicationScheme scheme(inst);
  util::Rng rng(3);
  for (int step = 0; step < 300; ++step) {
    const auto i = static_cast<core::SiteId>(rng.index(inst.sites()));
    const auto k = static_cast<core::ObjectId>(rng.index(inst.objects()));
    if (inst.primary(k) == i) continue;
    if (scheme.has_replica(i, k)) {
      scheme.remove(i, k);
    } else {
      scheme.add(i, k);
    }
  }
  EXPECT_TRUE(audit::check_scheme(scheme).empty());
}

// The V_k cache of one chromosome, kept by full_cost/delta_cost, against
// check_object_cost_cache's fresh evaluation (the suite is named for the
// DeltaEvaluator class the cache used to live in).
TEST(AuditCheckDeltaEvaluator, CleanAfterFlipChurn) {
  const core::Problem problem = testing::small_random_problem(12);
  core::CostEvaluator evaluator(problem);
  std::vector<std::uint8_t> matrix = core::ReplicationScheme(problem).matrix();
  std::vector<double> v(problem.objects(), 0.0);
  (void)evaluator.full_cost(matrix, v);
  util::Rng rng(9);
  for (int step = 0; step < 300; ++step) {
    const auto i = static_cast<core::SiteId>(rng.index(problem.sites()));
    const auto k = static_cast<core::ObjectId>(rng.index(problem.objects()));
    if (problem.primary(k) == i) continue;
    std::uint8_t& bit =
        matrix[static_cast<std::size_t>(i) * problem.objects() + k];
    bit = bit != 0 ? 0 : 1;
    const core::ObjectId changed[] = {k};
    (void)evaluator.delta_cost(matrix, changed, v);
  }
  EXPECT_TRUE(audit::check_object_cost_cache(problem, matrix, v).empty());
}

TEST(AuditCheckDeltaEvaluator, CatchesStaleCacheAfterPatternChange) {
  core::Problem problem = testing::small_random_problem(13);
  core::CostEvaluator evaluator(problem);
  const std::vector<std::uint8_t> matrix =
      core::ReplicationScheme(problem).matrix();
  std::vector<double> v(problem.objects(), 0.0);
  (void)evaluator.full_cost(matrix, v);
  // Mutating the pattern without re-deriving the V_k leaves the cache
  // stale — exactly the divergence the validator exists to catch.
  problem.add_reads(1, 0, 500.0);
  const audit::Violations violations =
      audit::check_object_cost_cache(problem, matrix, v);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "ga.v_cache");
}

TEST(AuditCheckObjectCostCache, CatchesACorruptedEntry) {
  const core::Problem problem = testing::small_random_problem(14);
  core::CostEvaluator evaluator(problem);
  const std::vector<std::uint8_t> matrix =
      core::ReplicationScheme(problem).matrix();
  std::vector<double> v(problem.objects(), 0.0);
  (void)evaluator.full_cost(matrix, v);
  EXPECT_TRUE(audit::check_object_cost_cache(problem, matrix, v).empty());
  v[2] += 1.0;
  const audit::Violations violations =
      audit::check_object_cost_cache(problem, matrix, v);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "ga.v_cache");
}

TEST(AuditCheckSraTerminal, FlagsAMissedBeneficialCandidate) {
  // One object, primary at site 0, heavy reads at site 2: replicating at
  // site 2 has positive benefit, so the primary-only scheme is NOT a sound
  // SRA terminal state.
  core::Problem problem = testing::line3_problem();
  problem.add_reads(2, 0, 100.0);
  const core::ReplicationScheme primary_only(problem);
  const audit::Violations violations =
      audit::check_sra_terminal(primary_only);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "sra.terminal");
}

TEST(AuditCheckSraTerminal, SraResultIsClean) {
  const core::Problem problem = testing::small_random_problem(15);
  const algo::AlgorithmResult result = algo::solve_sra(problem);
  EXPECT_TRUE(audit::check_sra_terminal(result.scheme).empty());
  EXPECT_TRUE(audit::check_scheme(result.scheme).empty());
}

TEST(AuditCheckAvailability, ConformingAndViolatingSchemes) {
  core::Problem problem = testing::line3_problem();
  core::ReplicationScheme scheme(problem);
  core::AvailabilityConstraint constraint;
  constraint.target = 0.9;
  constraint.site_availability = {0.5, 0.95, 0.6};

  // Primary-only: A = 0.5 < 0.9 — one violation naming the object.
  const audit::Violations below =
      audit::check_availability(scheme, constraint);
  ASSERT_EQ(below.size(), 1u);
  EXPECT_EQ(below.front().invariant, "scheme.availability");
  EXPECT_NE(below.front().detail.find("object 0"), std::string::npos);

  scheme.add(1, 0);  // A = 1 - 0.5·0.05 = 0.975
  EXPECT_TRUE(audit::check_availability(scheme, constraint).empty());
}

TEST(AuditMessageConservation, BalancedCountsPass) {
  EXPECT_TRUE(audit::check_message_conservation({.sent = 10,
                                                 .delivered_data = 4,
                                                 .delivered_control = 3,
                                                 .dropped_link = 2,
                                                 .dropped_site_down = 1,
                                                 .in_flight = 0})
                  .empty());
}

TEST(AuditMessageConservation, LeakIsCaught) {
  const audit::Violations violations =
      audit::check_message_conservation({.sent = 10,
                                         .delivered_data = 4,
                                         .delivered_control = 3,
                                         .dropped_link = 2,
                                         .dropped_site_down = 0,
                                         .in_flight = 0});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().invariant, "des.message_conservation");
}

TEST(AuditEpochAccounting, ExactSumsPass) {
  const std::vector<double> served{10.5, 20.25, 30.125};
  const std::vector<double> migration{1.5, 0.0, 2.25};
  EXPECT_TRUE(audit::check_epoch_accounting(10.5 + 20.25 + 30.125, served,
                                            1.5 + 0.0 + 2.25, migration)
                  .empty());
}

TEST(AuditEpochAccounting, DriftedTotalIsCaught) {
  const std::vector<double> served{10.0, 20.0};
  const audit::Violations violations =
      audit::check_epoch_accounting(31.0, served, 0.0, {});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().invariant, "epochs.served_traffic");
}

TEST(AuditPerfectRetune, CleanCountsPass) {
  EXPECT_TRUE(audit::check_perfect_retune(
                  {.data_traffic = 1234.5, .migration_traffic = 1234.5})
                  .empty());
}

TEST(AuditPerfectRetune, RetryActivityAndOvershootAreCaught) {
  const audit::Violations violations = audit::check_perfect_retune(
      {.data_traffic = 2000.0, .migration_traffic = 1000.0, .retries = 3});
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].invariant, "retune.perfect_network");
  EXPECT_EQ(violations[1].invariant, "retune.migration_traffic");
}

}  // namespace
}  // namespace drep
