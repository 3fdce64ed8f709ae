// The "dgra" registry adapter: registration, the audit-gated centralized
// comparator, and parity with the built-in "gra" adapter through the
// uniform Solver interface.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo/solver.hpp"
#include "dist/dgra.hpp"
#include "dist/solver.hpp"
#include "testing/builders.hpp"

namespace drep::dist {
namespace {

class DistSolverTest : public ::testing::Test {
 protected:
  void SetUp() override { register_dist_solvers(); }

  static algo::SolverOptions island_options(std::uint64_t seed) {
    algo::SolverOptions options;
    options.gra.population = 16;
    options.gra.generations = 15;
    options.gra.islands = 4;
    options.gra.migration_interval = 5;
    options.gra.migration_count = 1;
    options.common.seed = seed;
    return options;
  }
};

TEST_F(DistSolverTest, RegistrationIsIdempotent) {
  register_dist_solvers();
  register_dist_solvers();
  const algo::Solver* solver = algo::solver_registry().find("dgra");
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->name(), "dgra");
}

// Through the registry, dgra on a perfect network equals gra from the
// same seed — the user-facing face of the tentpole equivalence. The
// audit flag arms the convergence comparator inside the adapter, so a
// non-throwing solve here is itself the bit-equality assertion.
TEST_F(DistSolverTest, MatchesGraThroughRegistryWithAuditArmed) {
  const core::Problem problem = testing::small_random_problem(13);
  for (std::uint64_t seed : {1u, 14u, 99u}) {
    algo::SolverOptions options = island_options(seed);
    options.common.audit = true;
    const algo::SolveResponse dgra =
        algo::solver_registry().at("dgra").solve({problem, options});
    const algo::SolveResponse gra =
        algo::solver_registry().at("gra").solve(
            {problem, island_options(seed)});
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(dgra.result.scheme.matrix(), gra.result.scheme.matrix());
    EXPECT_DOUBLE_EQ(dgra.result.cost, gra.result.cost);
    EXPECT_TRUE(dgra.details.find("decentralized")->as_bool());
    EXPECT_DOUBLE_EQ(dgra.details.find("centralized_cost")->as_number(),
                     gra.result.cost);
    EXPECT_EQ(dgra.details.find("scheme_hash")->as_string(),
              std::to_string(chromosome_hash(gra.result.scheme.matrix())));
  }
}

// The dist options block routes the fault spec and the degradation
// ceiling into the run; the audit comparator then asserts the ceiling
// instead of bit-equality.
TEST_F(DistSolverTest, FaultSpecRoutesThroughDistOptions) {
  const core::Problem problem = testing::small_random_problem(13);
  algo::SolverOptions options = island_options(14);
  options.common.audit = true;
  options.dist.faults_spec = "seed=9,drop=0.2";
  options.dist.cost_ceiling_factor = 1.10;
  const algo::SolveResponse response =
      algo::solver_registry().at("dgra").solve({problem, options});
  EXPECT_GT(response.details.find("dropped_messages")->as_number(), 0.0);
  EXPECT_GT(response.details.find("retries")->as_number(), 0.0);
}

}  // namespace
}  // namespace drep::dist
