#pragma once
// Baseline allocators used as quality yardsticks around SRA/GRA/AGRA:
//
//  * primary_only   — the no-replication reference (0% savings by
//                     definition; D = D_prime);
//  * random_valid   — a random capacity-respecting scheme: how much of the
//                     heuristics' savings is just "any replicas at all";
//  * hill_climb     — best-improvement local search over exact ΔD single
//                     replica insertions/removals; slow but strong on small
//                     instances, brackets the heuristics from above.

#include "algo/result.hpp"
#include "util/rng.hpp"

namespace drep::algo {

/// The primary-copies-only allocation.
[[nodiscard]] AlgorithmResult primary_only(const core::Problem& problem);

/// Uniformly random scheme: iterates (site, object) cells in shuffled order
/// and sets each with probability `fill_probability` when capacity allows.
[[nodiscard]] AlgorithmResult random_valid(const core::Problem& problem,
                                           util::Rng& rng,
                                           double fill_probability = 0.5);

struct HillClimbStats {
  std::size_t insertions = 0;
  std::size_t removals = 0;
  std::size_t delta_evaluations = 0;
};

/// Best-improvement local search with exact deltas (core::insertion_delta /
/// core::removal_delta), starting from `start` (or primary-only when
/// nullptr), until no move improves D or `max_moves` is reached. Keeps
/// every cell's delta and re-derives only the moved object's column, so a
/// move costs an M·N scan plus M deltas of one object — intended for small
/// instances and tests. `delta_evaluations` counts the deltas derived.
[[nodiscard]] AlgorithmResult hill_climb(const core::Problem& problem,
                                         const core::ReplicationScheme* start = nullptr,
                                         std::size_t max_moves = 10000,
                                         HillClimbStats* stats = nullptr);

}  // namespace drep::algo
