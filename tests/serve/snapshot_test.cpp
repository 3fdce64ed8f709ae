// SchemeSnapshot freeze fidelity, the serving cost model, the refusal of
// partial rows, checksum determinism, the word hash's bit-flip guarantees,
// and the coherence validators' corruption detection.

#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

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

/// Every link costs 1, so every read away from a replica ties among all
/// replicas and the lex (cost, id) contract decides.
core::Problem uniform_cost_problem(std::size_t sites, std::size_t objects) {
  std::vector<core::SiteId> primaries(objects);
  for (core::ObjectId k = 0; k < objects; ++k)
    primaries[k] = static_cast<core::SiteId>(k % sites);
  return core::Problem(net::CostMatrix(sites, 1.0),
                       std::vector<double>(objects, 1.0), std::move(primaries),
                       std::vector<double>(sites, static_cast<double>(objects)));
}

/// Adds up to 60 random non-primary replicas.
void add_random_replicas(core::ReplicationScheme& scheme, std::uint64_t seed) {
  const core::Problem& problem = scheme.problem();
  util::Rng rng(seed);
  for (int step = 0; step < 60; ++step) {
    const auto i = static_cast<core::SiteId>(rng.index(problem.sites()));
    const auto k = static_cast<core::ObjectId>(rng.index(problem.objects()));
    if (problem.primary(k) != i && !scheme.has_replica(i, k)) scheme.add(i, k);
  }
}

TEST(SchemeSnapshot, ServeMatchesHandComputedCosts) {
  // Line of 3 sites, one object with primary at site 0, replica at site 2.
  const core::Problem problem = testing::line3_problem();
  core::ReplicationScheme scheme(problem);
  scheme.add(2, 0);
  const SchemeSnapshot snapshot = SchemeSnapshot::freeze(scheme, 7);

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
  EXPECT_DOUBLE_EQ(snapshot.primary_cost(1, 0), 1.0);
  const Outcome write = snapshot.serve(1, 0, true);
  EXPECT_EQ(write.served_by, 0u);
  EXPECT_DOUBLE_EQ(write.cost, 3.0);
}

TEST(SchemeSnapshot, DenseFreezeMatchesSchemeCellForCell) {
  const core::Problem problems[] = {testing::small_random_problem(11),
                                    uniform_cost_problem(9, 14)};
  for (const core::Problem& problem : problems) {
    core::ReplicationScheme scheme(problem);
    add_random_replicas(scheme, 3);
    const SchemeSnapshot snapshot = SchemeSnapshot::freeze(scheme, 1);
    for (core::ObjectId k = 0; k < problem.objects(); ++k) {
      const core::SiteId sp = problem.primary(k);
      // Eq. 4's propagation term, in ascending replica order.
      double surcharge = 0.0;
      for (const core::SiteId r : scheme.replicas(k))
        surcharge += problem.cost(sp, r);
      for (core::SiteId i = 0; i < problem.sites(); ++i) {
        EXPECT_EQ(snapshot.nearest(i, k), scheme.nearest(i, k));
        EXPECT_EQ(snapshot.nearest_cost(i, k), scheme.nearest_cost(i, k));
        EXPECT_EQ(snapshot.primary_cost(i, k), problem.cost(i, sp));
        const Outcome read = snapshot.serve(i, k, false);
        EXPECT_EQ(read.served_by, scheme.nearest(i, k));
        EXPECT_EQ(read.cost, scheme.nearest_cost(i, k));
        const Outcome write = snapshot.serve(i, k, true);
        EXPECT_EQ(write.served_by, sp);
        EXPECT_EQ(write.cost, problem.cost(i, sp) + surcharge);
      }
    }
    // And the cross-checking validator agrees with the loop above.
    EXPECT_TRUE(audit::check_snapshot_coherence(snapshot, scheme).empty());
  }
}

TEST(SchemeSnapshot, FreezeRejectsPartialRows) {
  // serve(i, k) indexes cell k·M + i, which a partial-row problem lacks.
  const core::Problem instance = tiny_sparse_instance();
  const core::ReplicationScheme scheme(instance);
  EXPECT_THROW((void)SchemeSnapshot::freeze(scheme, 1), std::invalid_argument);
}

TEST(SchemeSnapshot, ChecksumIsDeterministicAndGenerationSensitive) {
  const core::Problem problems[] = {testing::small_random_problem(4),
                                    uniform_cost_problem(5, 3)};
  for (const core::Problem& problem : problems) {
    core::ReplicationScheme scheme(problem);
    scheme.add(1, 0);
    const SchemeSnapshot a = SchemeSnapshot::freeze(scheme, 5);
    const SchemeSnapshot b = SchemeSnapshot::freeze(scheme, 5);
    const SchemeSnapshot c = SchemeSnapshot::freeze(scheme, 6);
    EXPECT_EQ(a.checksum(), a.compute_checksum());
    EXPECT_EQ(a.checksum(), b.checksum());
    EXPECT_NE(a.checksum(), c.checksum());
  }
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& byte : bytes)
    byte = static_cast<unsigned char>(rng.index(256));
  return bytes;
}

/// Flips bit `bit` (0 = least significant) of 8-byte word `word` in place.
void flip_word_bit(unsigned char* data, std::size_t word, std::size_t bit) {
  std::uint64_t value = 0;
  std::memcpy(&value, data + 8 * word, 8);
  value ^= std::uint64_t{1} << bit;
  std::memcpy(data + 8 * word, &value, 8);
}

TEST(SchemeSnapshot, WordHashCatchesAnySingleBitFlip) {
  // Every length from empty to three lane strides plus a 7-byte tail, at
  // every alignment of the first word.
  constexpr std::size_t kMaxSize = 3 * serve::kWordHashStride + 7;
  std::vector<unsigned char> buffer = random_bytes(kMaxSize + 8, 17);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= kMaxSize; ++size) {
      const unsigned char* data = buffer.data() + offset;
      const std::uint64_t clean = serve::word_hash(data, size);
      for (std::size_t bit = 0; bit < 8 * size; ++bit) {
        const auto mask = static_cast<unsigned char>(1u << (bit % 8));
        buffer[offset + bit / 8] ^= mask;
        const std::uint64_t flipped = serve::word_hash(data, size);
        buffer[offset + bit / 8] ^= mask;
        ASSERT_NE(flipped, clean)
            << "offset " << offset << ", size " << size << ", bit " << bit;
      }
    }
  }
  // Zero padding of the tail is told apart by the byte count.
  const std::vector<unsigned char> zeros(kMaxSize, 0);
  std::set<std::uint64_t> digests;
  for (std::size_t size = 0; size <= kMaxSize; ++size)
    digests.insert(serve::word_hash(zeros.data(), size));
  EXPECT_EQ(digests.size(), kMaxSize + 1);
}

TEST(SchemeSnapshot, WordHashCatchesTheSameBitFlippedInTwoWords) {
  // A multiply alone leaves a top-bit change in place, so two top-bit flips
  // would cancel without the step's rotation. Every bit, flipped in every
  // pair of words of three strides plus one word: pairs in one lane
  // (a multiple of four words apart) and in different lanes.
  constexpr std::size_t kWords = 3 * serve::kWordHashStride / 8 + 1;
  std::vector<unsigned char> buffer = random_bytes(8 * kWords, 29);
  const std::uint64_t clean = serve::word_hash(buffer.data(), buffer.size());
  for (std::size_t bit = 0; bit < 64; ++bit)
    for (std::size_t a = 0; a < kWords; ++a)
      for (std::size_t b = a + 1; b < kWords; ++b) {
        flip_word_bit(buffer.data(), a, bit);
        flip_word_bit(buffer.data(), b, bit);
        const std::uint64_t flipped =
            serve::word_hash(buffer.data(), buffer.size());
        flip_word_bit(buffer.data(), a, bit);
        flip_word_bit(buffer.data(), b, bit);
        ASSERT_NE(flipped, clean)
            << "bit " << bit << " of words " << a << " and " << b;
      }
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
  // The new replica's own cell now reads itself; the snapshot still routes
  // it to the primary. The detail names the cell and both sites.
  const std::string expected =
      "nearest (site " + std::to_string(site) + ", object 0): expected " +
      std::to_string(site) + ", found " +
      std::to_string(problem.primary(object));
  bool detail_pinned = false;
  for (const audit::Violation& violation : violations)
    detail_pinned |= violation.invariant == "snapshot.nearest" &&
                     violation.detail == expected;
  EXPECT_TRUE(detail_pinned) << expected;
}

TEST(SnapshotCoherence, CrossCheckCatchesAChangedLinkCost) {
  // Two problems of one shape that differ in C(2, 3) only. No primary or
  // replica sits at site 2 or 3, so every routing entry agrees and the
  // copied cost matrix alone tells them apart.
  const auto line4 = [](double cost_2_3) {
    net::CostMatrix costs(4);
    for (net::SiteId i = 0; i < 4; ++i)
      for (auto j = static_cast<net::SiteId>(i + 1); j < 4; ++j)
        costs.set(i, j, static_cast<double>(j - i));
    costs.set(2, 3, cost_2_3);
    return core::Problem(std::move(costs), {1.0, 1.0}, {0, 1},
                         {10.0, 10.0, 10.0, 10.0});
  };
  const core::Problem frozen_problem = line4(1.0);
  const core::Problem changed_problem = line4(1.5);
  const SchemeSnapshot snapshot =
      SchemeSnapshot::freeze(core::ReplicationScheme(frozen_problem), 0);
  const core::ReplicationScheme changed(changed_problem);
  ASSERT_TRUE(audit::check_snapshot_coherence(
                  snapshot, core::ReplicationScheme(frozen_problem))
                  .empty());

  const audit::Violations violations =
      audit::check_snapshot_coherence(snapshot, changed);
  ASSERT_EQ(violations.size(), 2u);
  for (const audit::Violation& violation : violations)
    EXPECT_EQ(violation.invariant, "snapshot.cost") << violation.detail;
  EXPECT_EQ(violations[0].detail, "C(2, 3): expected 1.5, found 1");
  EXPECT_EQ(violations[1].detail, "C(3, 2): expected 1.5, found 1");
}

}  // namespace
}  // namespace drep
