#pragma once
// AGRA — the Adaptive Genetic Replication Algorithm (paper Section 5).
//
// When an object's R/W pattern shifts past a threshold, AGRA runs a
// *micro-GA* for that object alone: chromosomes are M-bit site masks, the
// fitness is f_A = (V_prime - V_k)/V_prime on the per-object NTC, and the
// storage constraint is ignored (the problem is unconstrained and the
// strings are short, so a small population and regular sampling space are
// enough — "essentially a micro-GA"). The masks it finds are then
// *transcripted* into a retained GRA population: the best mask overwrites
// the changed object's column in half the population (including the elite =
// the network's current distribution) and random masks from the micro-GA's
// final population go into the other half. Capacity violations introduced
// by transcription are repaired by deallocating, at each over-full site,
// the object with the smallest replica-benefit estimate E_k(i) (Eq. 6).
// Optionally a few generations of "mini-GRA" then polish the population.
//
// Batched execution (DESIGN.md Section 10): the per-object micro-GAs are
// independent of one another — transcription of object j only writes column
// j of the working chromosomes, so object k's seed extracts (column k) do
// not depend on any other object's outcome. solve_agra therefore runs each
// changed object as its own task on a snapshot of the working population,
// with a per-object forked RNG stream and a per-task CostEvaluator, and
// commits the transcriptions serially in changed-object order. Parallel and
// serial execution are bit-identical by construction; capacity repair runs
// after all commits, in population order, as the deterministic resolution
// of the per-object capacity claims.

#include <span>

#include "algo/common.hpp"
#include "algo/gra.hpp"
#include "algo/result.hpp"

namespace drep::algo {

struct AgraConfig {
  /// Uniform solver knobs (seed/threads/audit/time limit); see
  /// algo/common.hpp. `common.threads == 1` keeps the micro-GA batch on the
  /// calling thread; any other value schedules it on the shared pool. The
  /// result is identical either way.
  CommonOptions common{};

  std::size_t population = 10;   // Ap
  std::size_t generations = 50;  // Ag
  double crossover_rate = 0.8;   // single-point
  double mutation_rate = 0.01;
  std::size_t elite_interval = 5;

  /// 0 = stand-alone (pick the best transcripted chromosome, the paper's
  /// policy (a)); otherwise the number of mini-GRA generations (policy (b),
  /// evaluated with 5 and 10 in Section 6.3).
  std::size_t mini_gra_generations = 0;
  /// GA parameters for the mini-GRA polish (its `generations` field is
  /// overridden by mini_gra_generations; its `init` is ignored).
  GraConfig mini_gra{};

  /// Transcription repair strategy (ablation bench abl_agra_repair).
  enum class Repair {
    kEstimator,   // Eq. 6 estimate, O(M) per candidate — the paper's choice
    kRandom,      // deallocate uniformly at random
    /// Exact ΔD greedy — the paper's rejected option. The repair keeps the
    /// V_k vector of the genes it repairs and scores a candidate as
    /// D - V_k + CostEvaluator::column_cost with the bit cleared:
    /// O((|R_k|+1)·|row|) per candidate. The victim is the replica whose
    /// removal degrades D least (smallest post-removal total).
    kExactDelta,
  };
  Repair repair = Repair::kEstimator;

  void validate() const;
};

/// Result of one micro-GA (single object).
struct MicroGaResult {
  ga::Chromosome best_mask;  // length M, primary bit set
  double best_fitness = 0.0;
  /// Final population of masks (unsorted).
  std::vector<ga::Chromosome> population;
};

/// Runs the per-object micro-GA. `current_mask` is the object's current
/// replication mask (always injected into the initial population);
/// `seed_masks` are column-k extracts of retained GRA solutions (may be
/// empty; the remainder of the population is random). The evaluator must
/// wrap `problem`.
[[nodiscard]] MicroGaResult micro_ga(const core::Problem& problem,
                                     core::CostEvaluator& evaluator,
                                     core::ObjectId object,
                                     const ga::Chromosome& current_mask,
                                     std::span<const ga::Chromosome> seed_masks,
                                     const AgraConfig& config, util::Rng& rng);

/// Deallocates replicas (never primaries) at over-full sites until
/// `genes` satisfies every capacity constraint; returns the number of
/// deallocations. `plw` must come from core::proportional_link_weights.
std::size_t repair_capacity(const core::Problem& problem, ga::Chromosome& genes,
                            std::span<const double> plw,
                            AgraConfig::Repair strategy, util::Rng& rng);

struct AgraResult {
  AlgorithmResult best;
  /// The transcripted (and, with mini-GRA, evolved) GRA population.
  std::vector<Individual> population;
  /// Seconds spent in the per-object micro-GAs / in the mini-GRA polish.
  double micro_ga_seconds = 0.0;
  double mini_gra_seconds = 0.0;
  /// Deallocations performed while repairing transcripted chromosomes.
  std::size_t repairs = 0;
};

/// Full AGRA pass over the given changed objects. `problem` carries the NEW
/// read/write patterns; `current_scheme` is the network's current M·N
/// replication chromosome (becomes the elite); `gra_population` is the
/// retained population of the last static GRA run (when empty, a population
/// is synthesized from perturbed copies of the current scheme).
///
/// Deprecated for runtime algorithm selection: new call sites should
/// dispatch through `solver_registry().at("agra")` (algo/solver.hpp) with an
/// AdaptContext, which wraps this function behind the uniform
/// SolveRequest/SolveResponse API.
[[nodiscard]] AgraResult solve_agra(
    const core::Problem& problem, const ga::Chromosome& current_scheme,
    std::span<const ga::Chromosome> gra_population,
    std::span<const core::ObjectId> changed_objects, const AgraConfig& config,
    util::Rng& rng);

}  // namespace drep::algo
