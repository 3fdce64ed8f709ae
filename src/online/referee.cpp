#include "online/referee.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/replication.hpp"
#include "obs/span.hpp"

namespace drep::online {

namespace {

using core::ObjectId;
using core::SiteId;

/// Strict-improvement epsilon, relative to the window's cost scale, so a
/// flip chain can never cycle on floating-point noise.
double improvement_eps(double scale) {
  return 1e-9 * std::max(1.0, scale);
}

}  // namespace

RefereeReport hindsight_cost(const core::Problem& problem,
                             std::span<const workload::Request> trace,
                             const RefereeConfig& config) {
  DREP_SPAN("online/referee");
  if (config.window == 0)
    throw std::invalid_argument("RefereeConfig: window must be > 0");

  // Work on a copy: each window overwrites the request matrices with that
  // window's exact counts, turning Eq. 4 into the window's serving cost
  // (the replay-equals-analytic-D property).
  core::Problem local = problem;
  const std::size_t sites = local.sites();
  const std::size_t objects = local.objects();

  RefereeReport report;
  core::ReplicationScheme current(local);  // primary-only start
  core::CostEvaluator evaluator(local);
  std::vector<double> v(objects, 0.0);  // V_k of the candidate scheme
  std::vector<SiteId> flipped;          // R_k with one bit flipped

  const std::size_t window = config.window;
  const std::size_t windows =
      trace.empty() ? 0 : (trace.size() + window - 1) / window;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = w * window;
    const std::size_t end = std::min(trace.size(), begin + window);
    local.clear_demand();
    workload::count_requests(trace.subspan(begin, end - begin), local);
    evaluator.refresh();
    for (ObjectId k = 0; k < objects; ++k)
      v[k] = evaluator.object_cost_with_replicas(k, current.replicas(k));
    const double stay = std::accumulate(v.begin(), v.end(), 0.0);

    // Clairvoyant local search: greedy first-improvement flips from the
    // current placement, capacity-checked, primaries pinned. `best` is
    // always Σ_k v[k], re-summed in object order after every flip.
    core::ReplicationScheme candidate(local, current.matrix());
    double best = stay;
    const double eps = improvement_eps(stay);
    bool improved = true;
    while (improved) {
      improved = false;
      for (SiteId i = 0; i < sites; ++i) {
        for (ObjectId k = 0; k < objects; ++k) {
          const bool has = candidate.has_replica(i, k);
          if (has && local.primary(k) == i) continue;
          if (!has && !candidate.fits(i, k)) continue;
          flipped = candidate.replicas(k);
          if (has)
            flipped.erase(std::find(flipped.begin(), flipped.end(), i));
          else
            flipped.insert(std::upper_bound(flipped.begin(), flipped.end(), i),
                           i);
          const double flipped_cost =
              evaluator.object_cost_with_replicas(k, flipped);
          if (best - v[k] + flipped_cost < best - eps) {
            if (has)
              candidate.remove(i, k);
            else
              candidate.add(i, k);
            v[k] = flipped_cost;
            best = std::accumulate(v.begin(), v.end(), 0.0);
            improved = true;
          }
        }
      }
    }

    ++report.windows;
    const double migration = core::migration_cost(current, candidate);
    if (best + migration < stay - eps) {
      report.serving_cost += best;
      report.migration_cost += migration;
      ++report.retunes;
      current = std::move(candidate);
    } else {
      report.serving_cost += stay;
    }
  }
  return report;
}

}  // namespace drep::online
