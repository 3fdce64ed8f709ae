#include "algo/agra.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "algo/sra.hpp"
#include "core/benefit.hpp"
#include "core/cost_model.hpp"
#include "testing/builders.hpp"
#include "workload/pattern_change.hpp"

namespace drep::algo {
namespace {

using core::ObjectId;
using core::SiteId;

AgraConfig fast_agra() {
  AgraConfig config;
  config.population = 8;
  config.generations = 20;
  return config;
}

TEST(AgraConfig, Validation) {
  AgraConfig config;
  EXPECT_NO_THROW(config.validate());
  config.population = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AgraConfig{};
  config.crossover_rate = -0.2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AgraConfig{};
  config.mutation_rate = 1.2;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AgraConfig{};
  config.elite_interval = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AgraConfig{};
  config.crossover_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = AgraConfig{};
  config.mutation_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(MicroGa, ImprovesSingleObjectFitness) {
  const core::Problem p = testing::small_random_problem(1, 15, 10, 2.0, 30.0);
  core::CostEvaluator evaluator(p);
  util::Rng rng(2);
  const ObjectId object = 0;
  ga::Chromosome current(p.sites(), 0);
  current[p.primary(object)] = 1;
  const double current_fitness =
      (evaluator.object_primary_only_cost(object) -
       evaluator.object_cost(object, current)) /
      evaluator.object_primary_only_cost(object);
  const MicroGaResult result =
      micro_ga(p, evaluator, object, current, {}, fast_agra(), rng);
  EXPECT_GE(result.best_fitness, current_fitness);
  // A read-mostly object on an unconstrained micro-GA should replicate and
  // gain substantially.
  EXPECT_GT(result.best_fitness, 0.3);
}

TEST(MicroGa, PrimaryBitAlwaysSet) {
  const core::Problem p = testing::small_random_problem(3, 10, 6);
  core::CostEvaluator evaluator(p);
  util::Rng rng(4);
  for (ObjectId k = 0; k < 3; ++k) {
    ga::Chromosome current(p.sites(), 0);
    current[p.primary(k)] = 1;
    const MicroGaResult result =
        micro_ga(p, evaluator, k, current, {}, fast_agra(), rng);
    EXPECT_EQ(result.best_mask[p.primary(k)], 1);
    for (const auto& mask : result.population)
      EXPECT_EQ(mask[p.primary(k)], 1);
  }
}

TEST(MicroGa, UpdateHeavyObjectStaysNarrow) {
  core::Problem p = testing::line_problem(6, 1, 10.0, 1000.0);
  for (SiteId i = 0; i < 6; ++i) p.set_writes(i, 0, 100.0);
  p.set_reads(3, 0, 1.0);
  core::CostEvaluator evaluator(p);
  util::Rng rng(5);
  ga::Chromosome current(6, 0);
  current[0] = 1;
  const MicroGaResult result =
      micro_ga(p, evaluator, 0, current, {}, fast_agra(), rng);
  // Replicating anywhere attracts 500+ updates for 1 read: the best mask
  // must stay at (or very near) primary-only.
  EXPECT_LE(ga::count_ones(result.best_mask), 2u);
}

TEST(MicroGa, SeedMasksAreUsed) {
  const core::Problem p = testing::small_random_problem(6, 12, 8);
  core::CostEvaluator evaluator(p);
  // Seed with the known SRA solution's column.
  const AlgorithmResult sra = solve_sra(p);
  util::Rng rng(7);
  ga::Chromosome current(p.sites(), 0);
  current[p.primary(0)] = 1;
  std::vector<ga::Chromosome> seeds;
  ga::Chromosome seed_mask(p.sites(), 0);
  for (SiteId i = 0; i < p.sites(); ++i)
    seed_mask[i] = sra.scheme.has_replica(i, 0) ? 1 : 0;
  seeds.push_back(seed_mask);
  const MicroGaResult result =
      micro_ga(p, evaluator, 0, current, seeds, fast_agra(), rng);
  const double seed_fitness =
      (evaluator.object_primary_only_cost(0) -
       evaluator.object_cost(0, seed_mask)) /
      evaluator.object_primary_only_cost(0);
  EXPECT_GE(result.best_fitness, seed_fitness - 1e-12);
}

TEST(RepairCapacity, FixesViolationsWithEveryStrategy) {
  const core::Problem p = testing::small_random_problem(8, 10, 12, 5.0, 12.0);
  const auto plw = core::proportional_link_weights(p);
  for (const auto strategy :
       {AgraConfig::Repair::kEstimator, AgraConfig::Repair::kRandom,
        AgraConfig::Repair::kExactDelta}) {
    ga::Chromosome genes(p.sites() * p.objects(), 1);  // grossly overfull
    util::Rng rng(9);
    const std::size_t removed = repair_capacity(p, genes, plw, strategy, rng);
    EXPECT_GT(removed, 0u);
    EXPECT_TRUE(chromosome_valid(p, genes));
    for (ObjectId k = 0; k < p.objects(); ++k) {
      EXPECT_EQ(genes[static_cast<std::size_t>(p.primary(k)) * p.objects() + k], 1)
          << "primary deallocated";
    }
  }
}

TEST(RepairCapacity, ValidChromosomeUntouched) {
  const core::Problem p = testing::small_random_problem(10);
  const auto plw = core::proportional_link_weights(p);
  ga::Chromosome genes = primary_chromosome(p);
  const ga::Chromosome before = genes;
  util::Rng rng(11);
  EXPECT_EQ(repair_capacity(p, genes, plw, AgraConfig::Repair::kEstimator, rng), 0u);
  EXPECT_EQ(genes, before);
}

TEST(RepairCapacity, EstimatorRemovesLowValueReplicasFirst) {
  // Site 1 over capacity holding a read-hot and a write-hot object of equal
  // size: the write-hot one must go.
  net::CostMatrix costs(3);
  costs.set(0, 1, 1.0);
  costs.set(1, 2, 1.0);
  costs.set(0, 2, 2.0);
  core::Problem p(std::move(costs), {10.0, 10.0}, {0, 0}, {20.0, 10.0, 20.0});
  p.set_reads(1, 0, 100.0);   // object 0: read hot at site 1
  p.set_writes(2, 1, 100.0);  // object 1: write hot
  p.set_reads(1, 1, 1.0);
  ga::Chromosome genes = primary_chromosome(p);
  genes[1 * 2 + 0] = 1;  // both replicated at site 1 (load 20 > cap 10)
  genes[1 * 2 + 1] = 1;
  const auto plw = core::proportional_link_weights(p);
  util::Rng rng(12);
  (void)repair_capacity(p, genes, plw, AgraConfig::Repair::kEstimator, rng);
  EXPECT_EQ(genes[1 * 2 + 0], 1);  // read-hot survives
  EXPECT_EQ(genes[1 * 2 + 1], 0);  // write-hot deallocated
  EXPECT_TRUE(chromosome_valid(p, genes));
}

class AgraScenario : public ::testing::Test {
 protected:
  AgraScenario()
      : problem_(testing::small_random_problem(20, 15, 20, 5.0, 15.0)) {}

  /// Runs SRA as "the static scheme", applies an update surge, and returns
  /// the stale chromosome + retained population.
  void surge(double read_share) {
    util::Rng rng(21);
    auto seeded = sra_seeded_population(problem_, 8, 0.25, rng);
    GraConfig gra;
    gra.population = 8;
    gra.generations = 10;
    GraResult static_run = evolve_population(problem_, std::move(seeded), gra, rng);
    stale_scheme_ = static_run.best.scheme.matrix();
    for (auto& ind : static_run.population)
      retained_.push_back(std::move(ind.genes));

    workload::PatternChangeConfig change;
    change.change_percent = 600.0;
    change.objects_percent = 30.0;
    change.read_share_percent = read_share;
    util::Rng crng(22);
    report_ = workload::apply_pattern_change(problem_, change, crng);
  }

  core::Problem problem_;
  ga::Chromosome stale_scheme_;
  std::vector<ga::Chromosome> retained_;
  workload::PatternChangeReport report_;
};

TEST_F(AgraScenario, StandaloneBeatsStaleScheme) {
  surge(/*read_share=*/20.0);  // mostly update increases
  util::Rng rng(23);
  const AgraResult result =
      solve_agra(problem_, stale_scheme_, retained_,
                 report_.all_changed(), fast_agra(), rng);
  core::ReplicationScheme stale(problem_, stale_scheme_);
  EXPECT_GE(result.best.savings_percent,
            core::savings_percent(problem_, stale));
  EXPECT_TRUE(result.best.scheme.is_valid());
  EXPECT_EQ(result.population.size(), retained_.size());
}

TEST_F(AgraScenario, MiniGraPolishHelps) {
  surge(/*read_share=*/80.0);
  AgraConfig standalone = fast_agra();
  AgraConfig polished = fast_agra();
  polished.mini_gra_generations = 5;
  polished.mini_gra.population = 8;
  util::Rng rng_a(24), rng_b(24);
  const AgraResult a =
      solve_agra(problem_, stale_scheme_, retained_, report_.all_changed(),
                 standalone, rng_a);
  const AgraResult b =
      solve_agra(problem_, stale_scheme_, retained_, report_.all_changed(),
                 polished, rng_b);
  EXPECT_TRUE(b.best.scheme.is_valid());
  EXPECT_GE(b.best.savings_percent, a.best.savings_percent - 1.0);
  EXPECT_GT(b.mini_gra_seconds, 0.0);
}

TEST_F(AgraScenario, EmptyRetainedPopulationIsSynthesized) {
  surge(/*read_share=*/50.0);
  util::Rng rng(25);
  const AgraResult result = solve_agra(problem_, stale_scheme_, {},
                                       report_.all_changed(), fast_agra(), rng);
  EXPECT_TRUE(result.best.scheme.is_valid());
  EXPECT_GE(result.best.savings_percent, 0.0);
}

TEST_F(AgraScenario, Validation) {
  surge(50.0);
  util::Rng rng(26);
  ga::Chromosome wrong(5, 0);
  EXPECT_THROW((void)solve_agra(problem_, wrong, retained_,
                                report_.all_changed(), fast_agra(), rng),
               std::invalid_argument);
  const std::vector<ObjectId> bad_object{
      static_cast<ObjectId>(problem_.objects())};
  EXPECT_THROW((void)solve_agra(problem_, stale_scheme_, retained_, bad_object,
                                fast_agra(), rng),
               std::out_of_range);
}

TEST_F(AgraScenario, NoChangedObjectsKeepsSchemeQuality) {
  surge(50.0);
  util::Rng rng(27);
  const AgraResult result = solve_agra(problem_, stale_scheme_, retained_, {},
                                       fast_agra(), rng);
  // With nothing transcripted, the best of the retained population (which
  // includes the elite/current scheme) is returned.
  core::ReplicationScheme stale(problem_, stale_scheme_);
  EXPECT_GE(result.best.savings_percent,
            core::savings_percent(problem_, stale) - 1e-9);
}

}  // namespace
}  // namespace drep::algo
