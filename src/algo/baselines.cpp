#include "algo/baselines.hpp"

#include <numeric>
#include <vector>

#include "core/benefit.hpp"
#include "util/index.hpp"
#include "util/timer.hpp"

namespace drep::algo {

AlgorithmResult primary_only(const core::Problem& problem) {
  util::Stopwatch watch;
  return make_result(core::ReplicationScheme(problem), watch.seconds());
}

AlgorithmResult random_valid(const core::Problem& problem, util::Rng& rng,
                             double fill_probability) {
  util::Stopwatch watch;
  core::ReplicationScheme scheme(problem);
  std::vector<std::size_t> cells(problem.sites() * problem.objects());
  std::iota(cells.begin(), cells.end(), 0);
  rng.shuffle(cells);
  for (const std::size_t cell : cells) {
    const auto site = static_cast<core::SiteId>(cell / problem.objects());
    const auto object = static_cast<core::ObjectId>(cell % problem.objects());
    if (scheme.has_replica(site, object)) continue;
    if (!scheme.fits(site, object)) continue;
    if (rng.bernoulli(fill_probability)) scheme.add(site, object);
  }
  return make_result(std::move(scheme), watch.seconds());
}

AlgorithmResult hill_climb(const core::Problem& problem,
                           const core::ReplicationScheme* start,
                           std::size_t max_moves, HillClimbStats* stats) {
  util::Stopwatch watch;
  core::ReplicationScheme scheme =
      start != nullptr ? *start : core::ReplicationScheme(problem);
  HillClimbStats local;
  const std::size_t m = problem.sites();
  const std::size_t n = problem.objects();

  // ΔD of the move at every non-primary cell: an insertion where the cell
  // holds no replica, a removal where it does. Both deltas read only object
  // k's demand row and R_k, so a move re-derives its object's column alone.
  // Capacity does change at the moved site, so fits() stays a scan-time
  // check.
  std::vector<double> delta(m * n, 0.0);
  const auto derive_column = [&](core::ObjectId k) {
    for (core::SiteId i = 0; i < m; ++i) {
      if (problem.primary(k) == i) continue;
      ++local.delta_evaluations;
      delta[util::dense_cell(i, n, k)] =
          scheme.has_replica(i, k) ? core::removal_delta(scheme, i, k)
                                   : core::insertion_delta(scheme, i, k);
    }
  };
  for (core::ObjectId k = 0; k < n; ++k) derive_column(k);

  for (std::size_t move = 0; move < max_moves; ++move) {
    double best_delta = -1e-9;  // strict improvement, with float slack
    core::SiteId best_site = 0;
    core::ObjectId best_object = 0;
    bool best_is_insert = true;
    bool found = false;
    for (core::SiteId i = 0; i < m; ++i) {
      for (core::ObjectId k = 0; k < n; ++k) {
        if (problem.primary(k) == i) continue;
        const bool is_insert = !scheme.has_replica(i, k);
        if (is_insert && !scheme.fits(i, k)) continue;
        const double cell_delta = delta[util::dense_cell(i, n, k)];
        if (cell_delta < best_delta) {
          best_delta = cell_delta;
          best_site = i;
          best_object = k;
          best_is_insert = is_insert;
          found = true;
        }
      }
    }
    if (!found) break;
    if (best_is_insert) {
      scheme.add(best_site, best_object);
      ++local.insertions;
    } else {
      scheme.remove(best_site, best_object);
      ++local.removals;
    }
    derive_column(best_object);
  }
  if (stats != nullptr) *stats = local;
  return make_result(std::move(scheme), watch.seconds());
}

}  // namespace drep::algo
