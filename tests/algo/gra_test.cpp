#include "algo/gra.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "algo/sra.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "testing/builders.hpp"
#include "util/thread_pool.hpp"

namespace drep::algo {
namespace {

GraConfig fast_config() {
  GraConfig config;
  config.population = 12;
  config.generations = 15;
  return config;
}

TEST(GraConfig, Validation) {
  GraConfig config;
  EXPECT_NO_THROW(config.validate());
  config.population = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = GraConfig{};
  config.crossover_rate = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = GraConfig{};
  config.mutation_rate = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = GraConfig{};
  config.elite_interval = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = GraConfig{};
  config.perturb_fraction = 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // NaN passes `x < lo || x > hi`; the range checks are written so it fails.
  for (double GraConfig::*rate :
       {&GraConfig::crossover_rate, &GraConfig::mutation_rate,
        &GraConfig::perturb_fraction}) {
    config = GraConfig{};
    config.*rate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(PrimaryChromosome, HasExactlyThePrimaryBits) {
  const core::Problem p = testing::small_random_problem(1);
  const ga::Chromosome genes = primary_chromosome(p);
  EXPECT_EQ(ga::count_ones(genes), p.objects());
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    EXPECT_EQ(genes[static_cast<std::size_t>(p.primary(k)) * p.objects() + k], 1);
  }
}

TEST(ChromosomeLoads, MatchesSchemeAccounting) {
  const core::Problem p = testing::small_random_problem(2);
  core::ReplicationScheme scheme(p);
  util::Rng rng(3);
  for (int step = 0; step < 30; ++step) {
    scheme.add(static_cast<core::SiteId>(rng.index(p.sites())),
               static_cast<core::ObjectId>(rng.index(p.objects())));
  }
  const auto loads = chromosome_loads(p, scheme.matrix());
  for (core::SiteId i = 0; i < p.sites(); ++i)
    EXPECT_DOUBLE_EQ(loads[i], scheme.used(i));
  EXPECT_TRUE(chromosome_valid(p, scheme.matrix()) == scheme.is_valid());
}

TEST(ChromosomeLoads, EqualsByteLoopReference) {
  util::Rng rng(4);
  for (const std::size_t objects : {1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 17, 200}) {
    const std::size_t sites = 6;
    // Fractional sizes across several decades, so a different order of the
    // additions would show in the last bits.
    std::vector<double> sizes(objects);
    for (double& size : sizes)
      size = 0.001 + rng.uniform01() * std::pow(10.0, rng.uniform_real(0, 4));
    std::vector<core::SiteId> primaries(objects);
    for (auto& primary : primaries)
      primary = static_cast<core::SiteId>(rng.index(sites));
    const core::Problem p(net::CostMatrix(sites, 1.0), sizes, primaries,
                          std::vector<double>(sites, 1e9));
    for (int trial = 0; trial < 20; ++trial) {
      ga::Chromosome genes(sites * objects);
      for (auto& gene : genes)
        gene = rng.bernoulli(0.3)
                   ? static_cast<std::uint8_t>(1 + rng.index(255))
                   : 0;
      const auto loads = chromosome_loads(p, genes);
      ASSERT_EQ(loads.size(), sites);
      for (core::SiteId i = 0; i < sites; ++i) {
        double reference = 0.0;
        for (core::ObjectId k = 0; k < objects; ++k) {
          if (genes[i * objects + k] != 0) reference += p.object_size(k);
        }
        EXPECT_EQ(loads[i], reference) << objects << " objects, site " << i;
      }
    }
  }
}

TEST(SraSeededPopulation, AllValidAndDiverse) {
  const core::Problem p = testing::small_random_problem(3);
  util::Rng rng(4);
  const auto population = sra_seeded_population(p, 10, 0.25, rng);
  ASSERT_EQ(population.size(), 10u);
  for (const auto& genes : population) {
    EXPECT_TRUE(chromosome_valid(p, genes));
    for (core::ObjectId k = 0; k < p.objects(); ++k) {
      EXPECT_EQ(genes[static_cast<std::size_t>(p.primary(k)) * p.objects() + k], 1)
          << "primary bit lost";
    }
  }
  // Diversity: at least two distinct chromosomes.
  bool any_diff = false;
  for (std::size_t i = 1; i < population.size() && !any_diff; ++i)
    any_diff = population[i] != population[0];
  EXPECT_TRUE(any_diff);
}

TEST(RandomPopulation, ValidWithPrimaries) {
  const core::Problem p = testing::small_random_problem(5);
  util::Rng rng(6);
  const auto population = random_population(p, 6, rng);
  for (const auto& genes : population) {
    EXPECT_TRUE(chromosome_valid(p, genes));
    EXPECT_GE(ga::count_ones(genes), p.objects());
  }
}

TEST(Gra, ResultIsValidAndAtLeastAsGoodAsItsSeeds) {
  const core::Problem p = testing::small_random_problem(7);
  util::Rng rng(8);
  const GraResult result = solve_gra(p, fast_config(), rng);
  EXPECT_TRUE(result.best.scheme.is_valid());
  EXPECT_GE(result.best.savings_percent, 0.0);
  // History is monotone non-decreasing and the final value matches.
  ASSERT_EQ(result.best_fitness_history.size(), fast_config().generations + 1);
  for (std::size_t g = 1; g < result.best_fitness_history.size(); ++g) {
    EXPECT_GE(result.best_fitness_history[g],
              result.best_fitness_history[g - 1] - 1e-12);
  }
  EXPECT_NEAR(result.best_fitness_history.back() * 100.0,
              result.best.savings_percent, 1e-6);
}

TEST(Gra, BeatsOrMatchesPlainSra) {
  // GRA's initial population contains unperturbed SRA solutions, so with
  // elitism the final best can only be at least as fit as random-order SRA;
  // compare against paper round-robin SRA with a modest tolerance.
  const core::Problem p = testing::small_random_problem(9, 12, 15, 10.0, 15.0);
  util::Rng rng(10);
  const GraResult gra = solve_gra(p, fast_config(), rng);
  const AlgorithmResult sra = solve_sra(p);
  EXPECT_GE(gra.best.savings_percent, sra.savings_percent - 2.0);
}

TEST(Gra, PopulationSizeAndValidityMaintained) {
  const core::Problem p = testing::small_random_problem(11);
  util::Rng rng(12);
  const GraResult result = solve_gra(p, fast_config(), rng);
  EXPECT_EQ(result.population.size(), fast_config().population);
  for (const auto& ind : result.population) {
    EXPECT_TRUE(chromosome_valid(p, ind.genes));
    EXPECT_GE(ind.fitness, 0.0);
    EXPECT_LE(ind.fitness, 1.0);
  }
  EXPECT_GT(result.evaluations, fast_config().population);
}

TEST(Gra, DeterministicGivenSeed) {
  const core::Problem p = testing::small_random_problem(13);
  util::Rng rng_a(14), rng_b(14);
  const GraResult a = solve_gra(p, fast_config(), rng_a);
  const GraResult b = solve_gra(p, fast_config(), rng_b);
  EXPECT_EQ(a.best.scheme.matrix(), b.best.scheme.matrix());
  EXPECT_DOUBLE_EQ(a.best.cost, b.best.cost);
  // The documented pooled-evaluation determinism guarantee: same seed and
  // pool ⇒ bit-identical trajectory, not just the same final scheme.
  ASSERT_EQ(a.best_fitness_history.size(), b.best_fitness_history.size());
  EXPECT_EQ(a.best_fitness_history, b.best_fitness_history);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_DOUBLE_EQ(a.full_equivalent_evaluations, b.full_equivalent_evaluations);
}

TEST(Gra, ParallelAndSerialEvaluationAgree) {
  const core::Problem p = testing::small_random_problem(15);
  GraConfig config = fast_config();
  config.common.threads = 1;
  util::Rng rng_serial(16);
  const GraResult serial = solve_gra(p, config, rng_serial);
  config.common.threads = 0;
  const std::size_t pool_before = util::ThreadPool::shared().size();
  // One lane per worker; lanes claim individuals in whatever order they
  // wake, so each pool size runs a different split of the same work.
  for (const std::size_t workers : {1, 2, 3, 8}) {
    util::ThreadPool::configure_shared(workers);
    util::Rng rng(16);
    const GraResult parallel = solve_gra(p, config, rng);
    EXPECT_EQ(parallel.best.scheme.matrix(), serial.best.scheme.matrix())
        << workers << " workers";
    // Fitness is computed per individual with no cross-individual FP
    // accumulation, so the full history must match exactly as well.
    EXPECT_EQ(parallel.best_fitness_history, serial.best_fitness_history)
        << workers << " workers";
    // The work total is one quotient of summed counts, whatever the split.
    EXPECT_EQ(parallel.full_equivalent_evaluations,
              serial.full_equivalent_evaluations)
        << workers << " workers";
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
  }
  util::ThreadPool::configure_shared(pool_before);
}

TEST(Gra, OneThreadSubmitsNoPoolTask) {
  // common.threads = 1 is strictly serial: a single-population solve
  // evaluates on the calling thread even when the shared pool has workers.
#if defined(DREP_OBS_DISABLED)
  GTEST_SKIP() << "pool tasks are counted by the obs metrics";
#else
  const auto pool_tasks = [] {
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    const obs::MetricSample* sample = snapshot.find("drep_pool_tasks_total");
    return sample != nullptr ? sample->value : 0.0;
  };
  const core::Problem p = testing::small_random_problem(15);
  const std::size_t pool_before = util::ThreadPool::shared().size();
  util::ThreadPool::configure_shared(4);
  GraConfig config = fast_config();
  config.common.threads = 1;
  const double before = pool_tasks();
  util::Rng serial_rng(16);
  (void)solve_gra(p, config, serial_rng);
  EXPECT_EQ(pool_tasks(), before);
  // The counter does see a pooled solve.
  config.common.threads = 0;
  util::Rng pooled_rng(16);
  (void)solve_gra(p, config, pooled_rng);
  EXPECT_GT(pool_tasks(), before);
  util::ThreadPool::configure_shared(pool_before);
#endif
}

TEST(Gra, IncrementalEvaluationSavesWork) {
  // The delta path must make the measured work (in full-evaluation units)
  // strictly smaller than the number of chromosomes evaluated: mutants and
  // crossover children touch far fewer than N objects.
  const core::Problem p = testing::small_random_problem(19);
  util::Rng rng(20);
  const GraResult result = solve_gra(p, fast_config(), rng);
  EXPECT_GT(result.full_equivalent_evaluations, 0.0);
  EXPECT_LT(result.full_equivalent_evaluations,
            0.9 * static_cast<double>(result.evaluations));
}

TEST(Gra, RandomInitAlsoWorks) {
  const core::Problem p = testing::small_random_problem(17);
  GraConfig config = fast_config();
  config.init = GraConfig::Init::kRandom;
  util::Rng rng(18);
  const GraResult result = solve_gra(p, config, rng);
  EXPECT_TRUE(result.best.scheme.is_valid());
  EXPECT_GE(result.best.savings_percent, 0.0);
}

TEST(Gra, AlternativeOperatorsStayValid) {
  const core::Problem p = testing::small_random_problem(19);
  for (const auto crossover :
       {GraConfig::CrossoverKind::kOnePoint, GraConfig::CrossoverKind::kUniform}) {
    GraConfig config = fast_config();
    config.crossover = crossover;
    util::Rng rng(20);
    const GraResult result = solve_gra(p, config, rng);
    EXPECT_TRUE(result.best.scheme.is_valid());
    for (const auto& ind : result.population)
      EXPECT_TRUE(chromosome_valid(p, ind.genes));
  }
}

TEST(Gra, TournamentAndRankSelectionVariantsStayValid) {
  const core::Problem p = testing::small_random_problem(31);
  for (const auto scheme :
       {GraConfig::SelectionScheme::kMuPlusLambdaTournament,
        GraConfig::SelectionScheme::kMuPlusLambdaRank}) {
    GraConfig config = fast_config();
    config.selection = scheme;
    util::Rng rng(32);
    const GraResult result = solve_gra(p, config, rng);
    EXPECT_TRUE(result.best.scheme.is_valid());
    EXPECT_GE(result.best.savings_percent, 0.0);
    for (std::size_t g = 1; g < result.best_fitness_history.size(); ++g) {
      EXPECT_GE(result.best_fitness_history[g],
                result.best_fitness_history[g - 1] - 1e-12);
    }
  }
}

TEST(GraConfig, TournamentArityValidation) {
  GraConfig config;
  config.tournament_arity = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Gra, SgaSelectionAblationRuns) {
  const core::Problem p = testing::small_random_problem(21);
  GraConfig config = fast_config();
  config.selection = GraConfig::SelectionScheme::kSgaRoulette;
  util::Rng rng(22);
  const GraResult result = solve_gra(p, config, rng);
  EXPECT_TRUE(result.best.scheme.is_valid());
  EXPECT_GE(result.best.savings_percent, 0.0);
}

TEST(EvolvePopulation, ContinuesFromGivenChromosomes) {
  const core::Problem p = testing::small_random_problem(23);
  util::Rng rng(24);
  auto initial = sra_seeded_population(p, 8, 0.25, rng);
  const double seed_best = [&] {
    core::CostEvaluator evaluator(p);
    double best = 0.0;
    for (const auto& genes : initial) best = std::max(best, evaluator.fitness(genes));
    return best;
  }();
  GraConfig config = fast_config();
  config.population = 8;
  config.generations = 5;
  const GraResult result = evolve_population(p, std::move(initial), config, rng);
  EXPECT_GE(result.best.savings_percent, 100.0 * seed_best - 1e-9);
}

TEST(EvolvePopulation, Validation) {
  const core::Problem p = testing::small_random_problem(25);
  util::Rng rng(26);
  GraConfig config = fast_config();
  EXPECT_THROW((void)evolve_population(p, {}, config, rng),
               std::invalid_argument);
  std::vector<ga::Chromosome> wrong_length{ga::Chromosome(3, 0),
                                           ga::Chromosome(3, 0)};
  EXPECT_THROW((void)evolve_population(p, wrong_length, config, rng),
               std::invalid_argument);
  // Capacity-violating chromosome.
  std::vector<ga::Chromosome> overfull{
      ga::Chromosome(p.sites() * p.objects(), 1),
      ga::Chromosome(p.sites() * p.objects(), 1)};
  EXPECT_THROW((void)evolve_population(p, overfull, config, rng),
               std::invalid_argument);
}

TEST(Gra, ImprovesOverGenerationsOnAWriteHeavyInstance) {
  // Where SRA struggles (high update ratio, tight capacity) GRA's search
  // should still find a non-negative, usually positive, improvement.
  const core::Problem p = testing::small_random_problem(27, 12, 15, 25.0, 12.0);
  util::Rng rng(28);
  GraConfig config = fast_config();
  config.generations = 25;
  const GraResult result = solve_gra(p, config, rng);
  EXPECT_GE(result.best_fitness_history.back(),
            result.best_fitness_history.front());
  EXPECT_TRUE(result.best.scheme.is_valid());
}

}  // namespace
}  // namespace drep::algo
