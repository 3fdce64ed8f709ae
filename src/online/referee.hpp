#pragma once
// Hindsight-optimal referee (DESIGN.md Section 12): replays a trace with
// full knowledge of the future and reports what a clairvoyant scheduler
// would have paid, so the online engine's competitive ratio
//
//   ratio = online total cost / hindsight total cost
//
// is measurable per run. The referee slices the trace into the engine's
// predictor windows; for each window it knows the window's exact request
// counts in advance, locally optimizes a scheme for them (greedy
// first-improvement bit flips, each scored by re-deriving one object's V_k
// with the CostEvaluator kernel the GAs use), and adopts the optimized
// scheme only when its serving cost plus the migration NTC of switching
// beats staying put.
//
// The referee is a strong clairvoyant baseline, not a provable optimum
// (greedy local search + windowed migration); the exact-OPT comparisons
// live in the tests on single-object traces where OPT is computable by
// dynamic programming.

#include <cstddef>
#include <span>

#include "core/problem.hpp"
#include "workload/trace.hpp"

namespace drep::online {

struct RefereeConfig {
  /// Requests per retune window; match the engine's predictor window for a
  /// fair ratio.
  std::size_t window = 128;
};

struct RefereeReport {
  double serving_cost = 0.0;
  double migration_cost = 0.0;
  std::size_t windows = 0;
  /// Windows in which the clairvoyant scheme actually changed.
  std::size_t retunes = 0;

  [[nodiscard]] double total_cost() const noexcept {
    return serving_cost + migration_cost;
  }
};

/// Clairvoyant cost of serving `trace` starting from the primary-only
/// scheme. Deterministic; does not modify `problem` (works on a copy).
[[nodiscard]] RefereeReport hindsight_cost(
    const core::Problem& problem, std::span<const workload::Request> trace,
    const RefereeConfig& config = {});

}  // namespace drep::online
