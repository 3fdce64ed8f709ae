// Integration tests asserting the qualitative shapes the paper's evaluation
// reports (Section 6), at reduced scale so the suite stays fast. The full
// curves live in bench/.

#include <gtest/gtest.h>

#include <cmath>

#include "algo/agra.hpp"
#include "algo/gra.hpp"
#include "algo/sra.hpp"
#include "core/cost_model.hpp"
#include "util/stats.hpp"
#include "workload/generator.hpp"
#include "workload/pattern_change.hpp"

namespace drep {
namespace {

core::Problem make(std::size_t sites, std::size_t objects, double update,
                   double capacity, std::uint64_t seed) {
  workload::GeneratorConfig config;
  config.sites = sites;
  config.objects = objects;
  config.update_ratio_percent = update;
  config.capacity_percent = capacity;
  util::Rng rng(seed);
  return workload::generate(config, rng);
}

algo::GraConfig small_gra() {
  algo::GraConfig config;
  config.population = 16;
  config.generations = 25;
  return config;
}

double mean_sra_savings(std::size_t sites, std::size_t objects, double update,
                        double capacity, int instances) {
  util::RunningStats stats;
  for (int inst = 0; inst < instances; ++inst) {
    const core::Problem p =
        make(sites, objects, update, capacity, 1000 + static_cast<std::uint64_t>(inst));
    stats.add(algo::solve_sra(p).savings_percent);
  }
  return stats.mean();
}

TEST(PaperShapes, GraBeatsSraOnAverage) {
  // Fig. 1: "GRA outperforms SRA in terms of solution quality."
  util::RunningStats gra_savings, sra_savings;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const core::Problem p = make(15, 20, 10.0, 15.0, seed);
    util::Rng rng(seed + 50);
    gra_savings.add(algo::solve_gra(p, small_gra(), rng).best.savings_percent);
    sra_savings.add(algo::solve_sra(p).savings_percent);
  }
  EXPECT_GE(gra_savings.mean(), sra_savings.mean());
}

TEST(PaperShapes, SavingsDecreaseWithUpdateRatio) {
  // Fig. 3(a): performance decreases (steeply) with the update ratio.
  const double at_2 = mean_sra_savings(12, 15, 2.0, 15.0, 4);
  const double at_10 = mean_sra_savings(12, 15, 10.0, 15.0, 4);
  const double at_40 = mean_sra_savings(12, 15, 40.0, 15.0, 4);
  EXPECT_GT(at_2, at_10);
  EXPECT_GT(at_10, at_40);
}

TEST(PaperShapes, SavingsGrowThenSaturateWithCapacity) {
  // Fig. 3(b): more capacity helps a lot at first, then flattens.
  const double at_5 = mean_sra_savings(12, 15, 2.0, 5.0, 4);
  const double at_20 = mean_sra_savings(12, 15, 2.0, 20.0, 4);
  const double at_300 = mean_sra_savings(12, 15, 2.0, 300.0, 4);
  const double at_600 = mean_sra_savings(12, 15, 2.0, 600.0, 4);
  EXPECT_GT(at_20, at_5);
  // Saturation: beyond "everything beneficial is replicated", growth stops.
  EXPECT_NEAR(at_600, at_300, 1.0);
}

TEST(PaperShapes, UpdateSurgeDegradesStaticScheme) {
  // Section 6.3: a static scheme can become badly outdated when updates
  // surge; AGRA recovers most of the loss.
  core::Problem p = make(15, 20, 5.0, 15.0, 7);
  util::Rng rng(8);
  const algo::GraResult static_run = algo::solve_gra(p, small_gra(), rng);
  const double before = static_run.best.savings_percent;

  workload::PatternChangeConfig change;
  change.change_percent = 600.0;
  change.objects_percent = 30.0;
  change.read_share_percent = 0.0;  // pure update surge
  util::Rng crng(9);
  const auto report = workload::apply_pattern_change(p, change, crng);

  core::ReplicationScheme stale(p, static_run.best.scheme.matrix());
  const double degraded = core::savings_percent(p, stale);
  EXPECT_LT(degraded, before);

  std::vector<ga::Chromosome> retained;
  for (const auto& ind : static_run.population) retained.push_back(ind.genes);
  algo::AgraConfig agra;
  agra.mini_gra_generations = 5;
  agra.mini_gra.population = static_run.population.size();
  util::Rng arng(10);
  const algo::AgraResult adapted =
      algo::solve_agra(p, static_run.best.scheme.matrix(), retained,
                       report.all_changed(), agra, arng);
  EXPECT_GT(adapted.best.savings_percent, degraded);
}

TEST(PaperShapes, GraExploitsAddedSitesBetterThanSra) {
  // Fig. 1(b): GRA's replica count grows with the network while SRA's stays
  // nearly constant. Compare replica growth between two network sizes.
  util::RunningStats sra_small, sra_large, gra_small, gra_large;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const core::Problem small_p = make(10, 15, 2.0, 15.0, 100 + seed);
    const core::Problem large_p = make(20, 15, 2.0, 15.0, 200 + seed);
    sra_small.add(static_cast<double>(algo::solve_sra(small_p).extra_replicas));
    sra_large.add(static_cast<double>(algo::solve_sra(large_p).extra_replicas));
    util::Rng ga(seed), gb(seed);
    gra_small.add(static_cast<double>(
        algo::solve_gra(small_p, small_gra(), ga).best.extra_replicas));
    gra_large.add(static_cast<double>(
        algo::solve_gra(large_p, small_gra(), gb).best.extra_replicas));
  }
  const double gra_growth = gra_large.mean() - gra_small.mean();
  const double sra_growth = sra_large.mean() - sra_small.mean();
  EXPECT_GT(gra_growth, sra_growth);
}

}  // namespace
}  // namespace drep
