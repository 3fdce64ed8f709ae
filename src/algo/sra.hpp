#pragma once
// SRA — the Simple (greedy) Replication Algorithm (paper Section 3).
//
// Starting from the primary-copies-only allocation, SRA repeatedly picks a
// site from the active list LS (round-robin in the paper; randomly when
// seeding GRA's initial population), replicates the candidate object in the
// site's list L(i) with the best strictly-positive per-storage-unit benefit
// B_k(i) (Eq. 5), and prunes candidates that no longer fit or whose benefit
// has gone non-positive. Benefits only decrease as replicas appear
// (nearest-replica distances shrink; update costs are constant), so pruning
// is safe and the loop terminates.
//
// The same monotonicity lets a visit skip the paper's rescan of L(i): each
// site keeps its live candidates in a max-heap keyed by their benefit when
// last evaluated, an upper bound on the current one, and re-evaluates only
// the top until the top's bound is exact (Minoux's lazy greedy). The pick,
// its lowest-object-id tie-break and the visit at which a site leaves LS are
// the scan's, so placements, costs and rng draws are too.
//
// The loop walks the Problem's demand rows (core/problem.hpp), so it scales
// in stored cells, not M·N. Only candidates whose benefit is positive when
// the run starts are listed (a zero-read cell never is); the rest of the
// paper's L(i) is carried as a per-site count that is charged to
// benefit_evaluations at the site's first visit, exactly where the paper's
// loop would evaluate and prune them. Full and partial rows of the same
// instance therefore run the identical trajectory — same site visits, same
// rng draws under kRandom, same placements, same SraStats.

#include "algo/common.hpp"
#include "algo/result.hpp"
#include "util/rng.hpp"

namespace drep::algo {

struct SraConfig {
  /// Uniform solver knobs (seed/threads/audit/time limit); see
  /// algo/common.hpp. SRA is single-pass and serial, so only `seed` (via the
  /// Solver registry) and `audit` have an effect.
  CommonOptions common{};

  enum class SiteOrder {
    kRoundRobin,  // the paper's deterministic order (step 4)
    kRandom,      // randomized start-up sites, used to diversify GRA seeds
  };
  SiteOrder site_order = SiteOrder::kRoundRobin;
};

struct SraStats {
  /// Number of while-loop iterations (site visits).
  std::size_t site_visits = 0;
  /// Number of replicas created.
  std::size_t replicas_created = 0;
  /// Number of benefit evaluations performed: the heap tops examined plus
  /// the dead candidates charged at their site's first visit.
  std::size_t benefit_evaluations = 0;
};

/// Runs SRA on `problem`. `rng` is only consulted for kRandom site order.
/// The returned scheme always satisfies the capacity and primary-copy
/// constraints.
///
/// Deprecated for runtime algorithm selection: new call sites should
/// dispatch through `solver_registry().at("sra")` (algo/solver.hpp), which
/// wraps this function behind the uniform SolveRequest/SolveResponse API.
[[nodiscard]] AlgorithmResult solve_sra(const core::Problem& problem,
                                        const SraConfig& config, util::Rng& rng,
                                        SraStats* stats = nullptr);

/// Convenience overload with default (paper) configuration.
[[nodiscard]] AlgorithmResult solve_sra(const core::Problem& problem);

}  // namespace drep::algo
