// The paper-shape assertion that compares two wall-clock times (Fig. 4(d)).
// Its own binary is registered RUN_SERIAL (tests/CMakeLists.txt), so no
// other test loads the machine while it times the two solves.

#include <gtest/gtest.h>

#include <vector>

#include "algo/agra.hpp"
#include "algo/gra.hpp"
#include "testing/builders.hpp"
#include "workload/pattern_change.hpp"

namespace drep {
namespace {

TEST(PaperShapes, AgraIsFasterThanFullGra) {
  // Fig. 4(d): AGRA (+ mini-GRA) runs orders of magnitude faster than a
  // full from-scratch GRA. At this reduced scale assert a conservative 2×;
  // the bench reproduces the 1.5-2 orders-of-magnitude gap at paper scale.
  core::Problem p = testing::small_random_problem(11, 30, 60, 5.0, 15.0);
  util::Rng rng(12);
  algo::GraConfig nightly;
  nightly.population = 16;
  nightly.generations = 25;
  algo::GraConfig full = nightly;
  full.population = 20;
  full.generations = 60;
  const algo::GraResult static_run = algo::solve_gra(p, nightly, rng);

  workload::PatternChangeConfig change;
  change.objects_percent = 20.0;
  util::Rng crng(13);
  const auto report = workload::apply_pattern_change(p, change, crng);

  util::Rng grng(14);
  const algo::GraResult scratch = algo::solve_gra(p, full, grng);

  std::vector<ga::Chromosome> retained;
  for (const auto& ind : static_run.population) retained.push_back(ind.genes);
  algo::AgraConfig agra;
  agra.mini_gra_generations = 5;
  agra.mini_gra.population = static_run.population.size();
  util::Rng arng(15);
  const algo::AgraResult adapted =
      algo::solve_agra(p, static_run.best.scheme.matrix(), retained,
                       report.all_changed(), agra, arng);
  EXPECT_LT(adapted.best.elapsed_seconds, scratch.best.elapsed_seconds / 2.0);
}

}  // namespace
}  // namespace drep
