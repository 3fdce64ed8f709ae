// SchemeSnapshot freeze fidelity, the serving cost model, checksum
// determinism, and the coherence validators' corruption detection.

#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/audit.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace drep {
namespace {

using serve::Outcome;
using serve::SchemeSnapshot;

core::Problem tiny_sparse_instance() {
  net::CostMatrix costs(4);
  for (net::SiteId i = 0; i < 4; ++i) {
    for (net::SiteId j = static_cast<net::SiteId>(i + 1); j < 4; ++j) {
      costs.set(i, j, static_cast<double>(j - i));
    }
  }
  core::Problem instance = testing::partial_row_problem(
      std::move(costs), {2.0, 3.0}, {0, 3}, {100.0, 100.0, 100.0, 100.0},
      {{{1, 5.0, 1.0}, {3, 2.0, 0.0}}, {{0, 3.0, 0.0}, {2, 1.0, 1.0}}});
  instance.validate();
  return instance;
}

TEST(SchemeSnapshot, ServeMatchesHandComputedCosts) {
  // Line of 3 sites, one object with primary at site 0, replica at site 2.
  const core::Problem problem = testing::line3_problem();
  core::ReplicationScheme scheme(problem);
  scheme.add(2, 0);
  const SchemeSnapshot snapshot = SchemeSnapshot::freeze(scheme, 7);

  EXPECT_EQ(snapshot.demand_cells(), 3u);
  EXPECT_EQ(snapshot.generation(), 7u);
  EXPECT_EQ(snapshot.sites(), 3u);
  EXPECT_EQ(snapshot.objects(), 1u);
  EXPECT_EQ(snapshot.total_replicas(), scheme.total_replicas());

  // Read at site 1: replicas {0, 2} are equidistant at cost 1; the lex
  // (cost, id) contract keeps site 0.
  const Outcome read = snapshot.serve(1, 0, false);
  EXPECT_EQ(read.served_by, 0u);
  EXPECT_DOUBLE_EQ(read.cost, 1.0);
  // Read at site 2 hits its own replica.
  EXPECT_DOUBLE_EQ(snapshot.serve(2, 0, false).cost, 0.0);

  // Write at site 1: served by SP_0 = 0 at C(1,0) = 1 plus the frozen
  // surcharge W_0 = C(0,0) + C(0,2) = 2.
  EXPECT_DOUBLE_EQ(snapshot.write_surcharge(0), 2.0);
  const Outcome write = snapshot.serve(1, 0, true);
  EXPECT_EQ(write.served_by, 0u);
  EXPECT_DOUBLE_EQ(write.cost, 3.0);
}

TEST(SchemeSnapshot, DenseFreezeMatchesSchemeCellForCell) {
  const core::Problem problem = testing::small_random_problem(11);
  core::ReplicationScheme scheme(problem);
  util::Rng rng(3);
  for (int step = 0; step < 60; ++step) {
    const auto i = static_cast<core::SiteId>(rng.index(problem.sites()));
    const auto k = static_cast<core::ObjectId>(rng.index(problem.objects()));
    if (problem.primary(k) != i && !scheme.has_replica(i, k)) scheme.add(i, k);
  }
  const SchemeSnapshot snapshot = SchemeSnapshot::freeze(scheme, 1);
  for (core::SiteId i = 0; i < problem.sites(); ++i) {
    for (core::ObjectId k = 0; k < problem.objects(); ++k) {
      EXPECT_EQ(snapshot.nearest(i, k), scheme.nearest(i, k));
      EXPECT_EQ(snapshot.nearest_cost(i, k), scheme.nearest_cost(i, k));
      EXPECT_EQ(snapshot.primary_cost(i, k),
                problem.cost(i, problem.primary(k)));
    }
  }
  // And the cross-checking validator agrees with the loop above.
  EXPECT_TRUE(audit::check_snapshot_coherence(snapshot, scheme).empty());
}

TEST(SchemeSnapshot, ChecksumIsDeterministicAndGenerationSensitive) {
  const core::Problem problem = testing::small_random_problem(4);
  core::ReplicationScheme scheme(problem);
  scheme.add(1, 0);
  const SchemeSnapshot a = SchemeSnapshot::freeze(scheme, 5);
  const SchemeSnapshot b = SchemeSnapshot::freeze(scheme, 5);
  const SchemeSnapshot c = SchemeSnapshot::freeze(scheme, 6);
  EXPECT_EQ(a.checksum(), a.compute_checksum());
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_NE(a.checksum(), c.checksum());
}

TEST(SchemeSnapshot, SparseFreezeAgreesWithDenseOnMaterializedInstance) {
  const core::Problem instance = tiny_sparse_instance();
  const core::Problem full_problem = instance.materialize();

  core::ReplicationScheme partial(instance);
  core::ReplicationScheme full(full_problem);
  partial.add(2, 0);
  full.add(2, 0);
  partial.add(1, 1);
  full.add(1, 1);

  const SchemeSnapshot partial_snap = SchemeSnapshot::freeze(partial, 9);
  const SchemeSnapshot full_snap = SchemeSnapshot::freeze(full, 9);
  EXPECT_EQ(partial_snap.demand_cells(), instance.demand_cells());
  EXPECT_EQ(full_snap.demand_cells(), full_problem.sites() * 2);
  EXPECT_FALSE(partial_snap.full_rows());
  EXPECT_TRUE(full_snap.full_rows());
  EXPECT_EQ(partial_snap.total_replicas(), full_snap.total_replicas());

  for (core::ObjectId k = 0; k < instance.objects(); ++k) {
    EXPECT_EQ(partial_snap.primary(k), full_snap.primary(k));
    EXPECT_EQ(partial_snap.write_surcharge(k), full_snap.write_surcharge(k));
    for (std::size_t z = partial_snap.demand_begin(k);
         z < partial_snap.demand_end(k); ++z) {
      const core::SiteId site = partial_snap.demand_site(z);
      for (const bool is_write : {false, true}) {
        const Outcome via_cell = partial_snap.serve_cell(z, k, is_write);
        const Outcome via_full = full_snap.serve(site, k, is_write);
        EXPECT_EQ(via_cell.served_by, via_full.served_by);
        EXPECT_EQ(via_cell.cost, via_full.cost);
      }
      // The checked (site, object) lookups find the same cell.
      EXPECT_EQ(partial_snap.nearest(site, k), full_snap.nearest(site, k));
      EXPECT_EQ(partial_snap.nearest_cost(site, k),
                full_snap.nearest_cost(site, k));
      EXPECT_EQ(partial_snap.primary_cost(site, k),
                full_snap.primary_cost(site, k));
    }
  }
  // A cell the partial rows omit was never frozen.
  EXPECT_THROW((void)partial_snap.nearest(2, 0), std::out_of_range);
  EXPECT_TRUE(audit::check_snapshot_coherence(partial_snap, partial).empty());
  EXPECT_TRUE(audit::check_snapshot_coherence(full_snap, full).empty());
}

TEST(SnapshotCoherence, DebugCorruptTripsTheChecksum) {
  const core::Problem problem = testing::small_random_problem(8);
  core::ReplicationScheme scheme(problem);
  scheme.add(2, 1);
  SchemeSnapshot snapshot = SchemeSnapshot::freeze(scheme, 3);
  ASSERT_TRUE(audit::check_snapshot_coherence(snapshot).empty());

  snapshot.debug_corrupt(17);
  const audit::Violations violations =
      audit::check_snapshot_coherence(snapshot);
  ASSERT_FALSE(violations.empty());
  bool checksum_flagged = false;
  for (const audit::Violation& violation : violations)
    checksum_flagged |= violation.invariant == "snapshot.checksum";
  EXPECT_TRUE(checksum_flagged);
}

TEST(SnapshotCoherence, CrossCheckCatchesSchemeDrift) {
  const core::Problem problem = testing::small_random_problem(2);
  core::ReplicationScheme scheme(problem);
  const SchemeSnapshot snapshot = SchemeSnapshot::freeze(scheme, 0);
  // Mutate the scheme after the freeze: the snapshot no longer reflects it.
  core::SiteId site = 1;
  core::ObjectId object = 0;
  if (problem.primary(object) == site) site = 2;
  scheme.add(site, object);
  const audit::Violations violations =
      audit::check_snapshot_coherence(snapshot, scheme);
  ASSERT_FALSE(violations.empty());
  bool drift_flagged = false;
  for (const audit::Violation& violation : violations)
    drift_flagged |= violation.invariant == "snapshot.nearest" ||
                     violation.invariant == "snapshot.write_surcharge" ||
                     violation.invariant == "snapshot.replicas";
  EXPECT_TRUE(drift_flagged);
}

}  // namespace
}  // namespace drep
