#pragma once
// GRA — the Genetic Replication Algorithm (paper Section 4).
//
// Chromosomes are site-major M·N bit strings (gene i = the N object bits of
// site i, exactly the paper's encoding; the layout coincides with
// ReplicationScheme::matrix()). The paper's design, all reproduced here:
//
//  * initialization: Np runs of SRA with randomized start-up sites; half of
//    the population is additionally perturbed in 1/4 of its values with
//    validity preserved;
//  * fitness: f = (D_prime - D)/D_prime, with f < 0 chromosomes reset to
//    the primary-only allocation;
//  * crossover: two-point with probability µc; an invalid boundary gene is
//    repaired by also exchanging the non-crossed portion of that gene
//    (making the whole gene come from one valid parent);
//  * mutation: per-bit flips with rate µm, re-flipped when the storage or
//    primary-copy constraint would break;
//  * selection: (µ+λ) enlarged sampling space — parents plus the crossover
//    and mutation subpopulations compete for the Np slots — sampled with
//    the stochastic remainder technique; elitism copies the best-ever
//    chromosome over the current worst once every `elite_interval`
//    generations.
//
// Ablation knobs (init/selection/crossover kind) cover the design choices
// benchmarked in bench/abl_gra_*.

// Island model (DESIGN.md Section 10): with `islands = K > 1` the
// population is split into K sub-populations, each evolving the identical
// generation loop on its own deterministic RNG child stream (util::Rng
// fork keyed by island id) with its own CostEvaluator. Every
// `migration_interval` generations the islands synchronize and exchange
// their `migration_count` fittest individuals along a ring (island i's
// elites replace the worst of island (i+1) mod K). Seeding, each epoch's
// advance and the closing finish run one task per island through
// for_each_task (algo/common.hpp), so the run scales with cores while
// staying a pure function of (problem, config, seed): islands=1 reproduces
// the single-population GRA bit-for-bit, and islands=K is bit-identical
// across runs and across any thread count.

#include <optional>

#include "algo/common.hpp"
#include "algo/result.hpp"
#include "util/rng.hpp"

namespace drep::algo {

struct GraConfig {
  /// Uniform solver knobs (seed/threads/audit/time limit); see
  /// algo/common.hpp. `common.seed` is only consulted by the Solver
  /// registry path. A single population is evaluated through
  /// for_each_task: on the shared pool's lanes unless `common.threads == 1`.
  /// Fitness is computed per individual with no cross-individual
  /// floating-point accumulation and no per-lane state that can affect
  /// results, so for a fixed seed serial and pooled evaluation, at any pool
  /// size, produce identical populations and an identical
  /// best_fitness_history (regression-tested in tests/algo/gra_test.cpp).
  CommonOptions common{};

  std::size_t population = 50;   // Np, totalled across all islands
  std::size_t generations = 80;  // Ng
  double crossover_rate = 0.9;   // µc
  double mutation_rate = 0.01;   // µm
  /// Elite copy-back cadence in generations (paper: 5).
  std::size_t elite_interval = 5;
  /// Fraction of gene positions perturbed in half of the seeded population.
  double perturb_fraction = 0.25;

  enum class Init { kSraSeeded, kRandom };
  Init init = Init::kSraSeeded;

  enum class SelectionScheme {
    kMuPlusLambdaRemainder,   // the paper's GRA selection
    kSgaRoulette,             // Holland's SGA (ablation)
    kMuPlusLambdaTournament,  // scaling-invariant alternative (ablation)
    kMuPlusLambdaRank,        // linear-rank alternative (ablation)
  };
  SelectionScheme selection = SelectionScheme::kMuPlusLambdaRemainder;
  /// Tournament arity for kMuPlusLambdaTournament.
  std::size_t tournament_arity = 3;

  enum class CrossoverKind { kTwoPointRepair, kOnePoint, kUniform };
  CrossoverKind crossover = CrossoverKind::kTwoPointRepair;

  /// Number of islands. 1 = the classic single-population GRA (bit-exactly
  /// the pre-island behavior). K > 1 splits `population` into K near-equal
  /// shares (each must hold at least 2 individuals).
  std::size_t islands = 1;
  /// Generations between island synchronization/migration points.
  std::size_t migration_interval = 10;
  /// Elites each island emits per migration (ring topology). Must be
  /// smaller than the smallest island share; 0 disables migration (islands
  /// then evolve fully independently until the final merge).
  std::size_t migration_count = 2;

  /// Checks field ranges only; no field choice affects determinism (see
  /// `common` above).
  void validate() const;
};

struct GraResult {
  AlgorithmResult best;
  /// Final population (schemes + fitness), retained because AGRA's
  /// transcription and the Current+GRA adaptive policies evolve it further.
  /// With islands > 1 this is the concatenation of the island populations
  /// in island order (total size = config.population).
  std::vector<Individual> population;
  /// Best-ever fitness after initialization and after each generation;
  /// non-decreasing. Length generations+1, or fewer when a
  /// common.time_limit_seconds stop cut the run short. With islands > 1
  /// entry g is the maximum across islands at generation g.
  std::vector<double> best_fitness_history;
  /// Number of chromosome evaluations performed (full and incremental
  /// alike — each evaluated chromosome counts once).
  std::size_t evaluations = 0;
  /// Actual evaluation work spent, in units of one full M·N evaluation:
  /// a delta-evaluated chromosome contributes touched/N. Includes the
  /// engine's setup evaluation of the primary-only chromosome, so this is
  /// slightly above the work the `evaluations` chromosomes alone cost; the
  /// ratio against `evaluations` is the measured saving of the incremental
  /// path.
  double full_equivalent_evaluations = 0.0;
};

/// Full GRA run: build the initial population, evolve, return the best.
/// With islands > 1 the seeding, evolution, and evaluation all happen on
/// per-island RNG child streams; `rng` is advanced exactly once so
/// back-to-back calls still see fresh streams.
///
/// Deprecated entry point for new call sites: prefer dispatching through
/// the name-keyed registry in algo/solver.hpp (`solver_registry()`), which
/// wraps this function behind the uniform drep::Solver interface.
[[nodiscard]] GraResult solve_gra(const core::Problem& problem,
                                  const GraConfig& config, util::Rng& rng);

/// Evolves a caller-supplied initial population (AGRA's transcription and
/// the Current+N·GRA policies of Section 6.3). Primary bits are forced on;
/// throws std::invalid_argument when a chromosome has the wrong length or
/// violates a capacity constraint. With islands > 1 the initial population
/// is split into contiguous island shares.
///
/// Deprecated entry point for new call sites: prefer algo/solver.hpp.
[[nodiscard]] GraResult evolve_population(const core::Problem& problem,
                                          std::vector<ga::Chromosome> initial,
                                          const GraConfig& config,
                                          util::Rng& rng);

/// The paper's GRA seed: `count` SRA runs with random start-up sites, the
/// second half perturbed in `perturb_fraction` of their positions (validity
/// preserved).
[[nodiscard]] std::vector<ga::Chromosome> sra_seeded_population(
    const core::Problem& problem, std::size_t count, double perturb_fraction,
    util::Rng& rng);

/// Random valid population (each free position turned on with probability
/// 1/2 where capacity allows, in shuffled order).
[[nodiscard]] std::vector<ga::Chromosome> random_population(
    const core::Problem& problem, std::size_t count, util::Rng& rng);

/// The primary-copies-only chromosome.
[[nodiscard]] ga::Chromosome primary_chromosome(const core::Problem& problem);

/// Per-site storage loads of a chromosome (including primaries).
[[nodiscard]] std::vector<double> chromosome_loads(
    const core::Problem& problem, std::span<const std::uint8_t> genes);

/// True when every gene (site) of the chromosome fits its capacity.
[[nodiscard]] bool chromosome_valid(const core::Problem& problem,
                                    std::span<const std::uint8_t> genes);

}  // namespace drep::algo
