// SRA's per-site lazy heaps against the paper's rescanning loop
// (tests/testing/scan_sra.hpp). Benefits only fall as replicas appear, so a
// stale benefit bounds the current one and the heap's settled top is the
// scan's first maximal candidate. Everything the scan decides must carry
// over: the replica lists, the cost bits, the site visits, the replicas
// created, and the rng draws of the random site order. Only
// benefit_evaluations differs, by design.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo/sra.hpp"
#include "testing/scan_sra.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/stream_gen.hpp"

namespace drep::algo {
namespace {

constexpr SraConfig::SiteOrder kOrders[] = {SraConfig::SiteOrder::kRoundRobin,
                                            SraConfig::SiteOrder::kRandom};

/// Solves `problem` with the heap and with the scan from equal rng states
/// and expects the same outcome. Returns the replicas the heap created.
std::size_t expect_same_as_scan(const core::Problem& problem,
                                SraConfig::SiteOrder order,
                                std::uint64_t seed) {
  SCOPED_TRACE(order == SraConfig::SiteOrder::kRoundRobin ? "round robin"
                                                          : "random order");
  SraConfig config;
  config.site_order = order;
  util::Rng heap_rng(seed);
  util::Rng scan_rng(seed);
  SraStats heap_stats;
  SraStats scan_stats;
  const AlgorithmResult heap =
      solve_sra(problem, config, heap_rng, &heap_stats);
  const AlgorithmResult scan =
      testing::scan_sra(problem, config, scan_rng, &scan_stats);
  for (core::ObjectId k = 0; k < problem.objects(); ++k)
    EXPECT_EQ(heap.scheme.replicas(k), scan.scheme.replicas(k))
        << "object " << k;
  EXPECT_EQ(heap.cost, scan.cost);
  EXPECT_EQ(heap.savings_percent, scan.savings_percent);
  EXPECT_EQ(heap.extra_replicas, scan.extra_replicas);
  EXPECT_EQ(heap_stats.site_visits, scan_stats.site_visits);
  EXPECT_EQ(heap_stats.replicas_created, scan_stats.replicas_created);
  EXPECT_EQ(heap.iterations, scan.iterations);
  EXPECT_EQ(heap_rng.next(), scan_rng.next());
  return heap_stats.replicas_created;
}

// 60 paper-style instances: 10–49 sites, 50–349 objects, 5–45% capacity,
// 0–15% updates, every (site, object) pair demanded (full rows).
TEST(SraLazyHeap, MatchesTheScanOnGeneratedInstances) {
  std::size_t created = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    util::Rng draw(1000 + seed);
    workload::GeneratorConfig config;
    config.sites = 10 + draw.index(40);
    config.objects = 50 + draw.index(300);
    config.capacity_percent = 5.0 + static_cast<double>(draw.index(41));
    config.update_ratio_percent = static_cast<double>(draw.index(16));
    const core::Problem problem = workload::generate(config, draw);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ": " << config.sites << "x"
                 << config.objects << ", C " << config.capacity_percent
                 << "%, U " << config.update_ratio_percent << "%");
    for (const SraConfig::SiteOrder order : kOrders)
      created += expect_same_as_scan(problem, order, seed * 7 + 3);
  }
  EXPECT_GT(created, 0u) << "no instance placed a replica";
}

// 20 streamed instances with partial rows: a few readers per object, so
// most of each site's list is dead and the heaps are small.
TEST(SraLazyHeap, MatchesTheScanOnSparseInstances) {
  std::size_t created = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng draw(2000 + seed);
    workload::StreamConfig config;
    config.sites = 10 + draw.index(40);
    config.objects = 50 + draw.index(300);
    config.capacity_fraction =
        0.05 + 0.01 * static_cast<double>(draw.index(41));
    config.seed = seed;
    const core::Problem problem = workload::build_sparse_instance(config);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << ": "
                                      << config.sites << "x" << config.objects);
    for (const SraConfig::SiteOrder order : kOrders)
      created += expect_same_as_scan(problem, order, seed * 11 + 5);
  }
  EXPECT_GT(created, 0u) << "no instance placed a replica";
}

// Every benefit ties: uniform link costs, equal reads, equal sizes and no
// writes. A replica never lowers another site's nearest cost, so every
// pick is a tie the lowest object id must win, at every site, in both
// orders — as in the scan.
TEST(SraLazyHeap, TiesGoToTheLowestObjectId) {
  constexpr std::size_t kSites = 8;
  constexpr std::size_t kObjects = 60;
  constexpr std::size_t kExtra = 10;  // room per site beyond its primaries
  net::CostMatrix costs(kSites);
  for (net::SiteId i = 0; i < kSites; ++i) {
    for (net::SiteId j = static_cast<net::SiteId>(i + 1); j < kSites; ++j)
      costs.set(i, j, 1.0);
  }
  std::vector<core::SiteId> primaries(kObjects);
  std::vector<double> capacities(kSites, static_cast<double>(kExtra));
  for (core::ObjectId k = 0; k < kObjects; ++k) {
    primaries[k] = static_cast<core::SiteId>(k % kSites);
    capacities[primaries[k]] += 1.0;
  }
  core::Problem problem(std::move(costs), std::vector<double>(kObjects, 1.0),
                        primaries, capacities);
  for (core::SiteId i = 0; i < kSites; ++i) {
    for (core::ObjectId k = 0; k < kObjects; ++k) problem.set_reads(i, k, 10.0);
  }
  problem.validate();

  for (const SraConfig::SiteOrder order : kOrders) {
    (void)expect_same_as_scan(problem, order, 17);
    SraConfig config;
    config.site_order = order;
    util::Rng rng(17);
    const AlgorithmResult result = solve_sra(problem, config, rng);
    for (core::SiteId i = 0; i < kSites; ++i) {
      std::size_t held = 0;
      for (core::ObjectId k = 0; k < kObjects; ++k) {
        if (primaries[k] == i) continue;
        EXPECT_EQ(result.scheme.has_replica(i, k), held < kExtra)
            << "site " << i << ", object " << k;
        if (held < kExtra) ++held;
      }
    }
  }
}

}  // namespace
}  // namespace drep::algo
