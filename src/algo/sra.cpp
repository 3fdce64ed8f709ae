#include "algo/sra.hpp"

#include <algorithm>
#include <vector>

#include "audit/gate.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"

namespace drep::algo {

AlgorithmResult make_result(core::ReplicationScheme scheme,
                            double elapsed_seconds) {
  const core::Problem& problem = scheme.problem();
  AlgorithmResult result{std::move(scheme), 0.0, 0.0, 0, elapsed_seconds};
  result.cost = core::total_cost(result.scheme);
  result.savings_percent =
      100.0 * core::savings_fraction(problem, result.cost);
  result.extra_replicas = result.scheme.extra_replicas();
  return result;
}

namespace {

/// A live candidate: object k at demand cell z of the visiting site. The
/// benefit terms that stay constant over the candidate's lifetime are baked
/// in at list build — its site is fixed, so the Eq. 5 write penalty
/// (TW_k - w_k(i)) · C(i, SP_k) never changes, and neither do r_k(i) or o_k.
/// The scan then touches one scattered array (the nearest-cost cache) per
/// candidate instead of five; every precomputed double is the product
/// core::local_benefit forms, so benefits are bit-identical to it.
struct Candidate {
  core::ObjectId object = 0;
  std::size_t demand_index = 0;
  double reads = 0.0;          // r_k(i)
  double write_penalty = 0.0;  // (TW_k - w_k(i)) * C(i, SP_k)
  double size = 0.0;           // o_k
};

/// Number of objects in `sorted_sizes` satisfying the fits() predicate
/// `free >= o_k - slack` for a site with the given free capacity. The
/// predicate is monotone non-increasing along ascending sizes (floating
/// point subtraction of a constant preserves ordering), so a partition
/// point evaluates the EXACT fits() expression yet costs O(log N).
std::size_t count_fitting(const std::vector<double>& sorted_sizes, double free,
                          double slack) {
  const auto it =
      std::partition_point(sorted_sizes.begin(), sorted_sizes.end(),
                           [&](double o) { return free >= o - slack; });
  return static_cast<std::size_t>(it - sorted_sizes.begin());
}

}  // namespace

AlgorithmResult solve_sra(const core::Problem& problem,
                          const SraConfig& config, util::Rng& rng,
                          SraStats* stats) {
  DREP_SPAN("sra/solve");
  util::Stopwatch watch;
  core::ReplicationScheme scheme(problem);
  const std::size_t m = problem.sites();
  const std::size_t n = problem.objects();
  const auto demand_reads = problem.demand_reads();
  const auto demand_writes = problem.demand_writes();

  // L(i): the paper lists every object site i does not hold and that fits.
  // Benefits only fall while SRA runs, so a candidate whose benefit is
  // already non-positive at the start is evaluated once, at its site's
  // first visit, and pruned there. That holds for every cell with
  // r_k(i) = 0 (its benefit is -(TW_k - w_k(i))·C(i,SP_k) <= 0), stored or
  // not. The list therefore splits:
  //   * live candidates (nonzero-read cells with positive initial benefit),
  //     appended in ascending object order, which the lowest-object-id
  //     tie-break below rides on;
  //   * dead candidates (every other fitting non-primary object), carried
  //     as a per-site COUNT that is flushed into benefit_evaluations at the
  //     site's first visit; the site stays in LS until then.
  std::vector<std::vector<Candidate>> candidates(m);
  const double* initial_cost = scheme.nearest_cost_data();
  for (core::ObjectId k = 0; k < n; ++k) {
    const core::SiteId sp = problem.primary(k);
    const auto sp_row = problem.costs().row(sp);  // C(SP_k, i) == C(i, SP_k)
    const auto sites = problem.demand_sites(k);
    const std::size_t begin = problem.demand_begin(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      const std::size_t z = begin + j;
      const core::SiteId i = sites[j];
      if (i == sp || demand_reads[z] == 0.0 || !scheme.fits(i, k)) continue;
      const double penalty =
          (problem.total_writes(k) - demand_writes[z]) * sp_row[i];
      if (demand_reads[z] * initial_cost[z] - penalty <= 0.0) continue;
      candidates[i].push_back(
          {k, z, demand_reads[z], penalty, problem.object_size(k)});
    }
  }

  // Dead counts without touching M·N cells: the fitting objects (a
  // partition point over the sorted sizes) minus the site's fitting
  // primaries minus its live candidates.
  std::vector<double> sorted_sizes(n);
  for (core::ObjectId k = 0; k < n; ++k) sorted_sizes[k] = problem.object_size(k);
  std::sort(sorted_sizes.begin(), sorted_sizes.end());
  std::vector<std::vector<double>> primary_sizes(m);
  for (core::ObjectId k = 0; k < n; ++k)
    primary_sizes[problem.primary(k)].push_back(problem.object_size(k));
  for (auto& sizes : primary_sizes) std::sort(sizes.begin(), sizes.end());

  std::vector<std::size_t> dead(m, 0);
  for (core::SiteId i = 0; i < m; ++i) {
    const double free = scheme.free_capacity(i);
    const double slack = scheme.capacity_slack(i);
    const std::size_t fitting = count_fitting(sorted_sizes, free, slack);
    const std::size_t fitting_primaries =
        count_fitting(primary_sizes[i], free, slack);
    dead[i] = fitting - fitting_primaries - candidates[i].size();
  }

  // LS: sites with a non-empty candidate list (live or dead).
  std::vector<core::SiteId> active;
  active.reserve(m);
  for (core::SiteId i = 0; i < m; ++i) {
    if (!candidates[i].empty() || dead[i] != 0) active.push_back(i);
  }

  SraStats local_stats;
  std::size_t cursor = 0;  // round-robin position in `active`
  while (!active.empty()) {
    ++local_stats.site_visits;
    std::size_t slot;
    if (config.site_order == SraConfig::SiteOrder::kRandom) {
      slot = rng.index(active.size());
    } else {
      slot = cursor % active.size();
    }
    const core::SiteId site = active[slot];

    // First visit flushes the dead candidates: each is evaluated once
    // (benefit <= 0) and pruned.
    local_stats.benefit_evaluations += dead[site];
    dead[site] = 0;

    // One pass over the live L(site): find the best strictly-positive
    // benefit and prune candidates that became unprofitable or no longer
    // fit. Benefits are non-increasing over the run, so pruning is
    // permanent. Capacity is fixed for the whole scan (the placement
    // happens after it), so free/slack hoist out of the loop — the
    // per-candidate comparison is the exact fits() expression.
    //
    // Tie-break: strict `>` keeps the FIRST maximal candidate. The list is
    // built in ascending object order and compaction preserves it, so equal
    // benefits deterministically resolve to the lowest object id — `>=`
    // would pick the last one and make results depend on list order.
    double best_benefit = 0.0;
    std::size_t best_pos = 0;
    bool found = false;
    auto& list = candidates[site];
    const double free = scheme.free_capacity(site);
    const double slack = scheme.capacity_slack(site);
    const double* nearest_cost = scheme.nearest_cost_data();
    std::size_t write_pos = 0;
    const std::size_t count = list.size();
    for (std::size_t at = 0; at < count; ++at) {
      const Candidate cand = list[at];
      ++local_stats.benefit_evaluations;
      if (!(free >= cand.size - slack)) continue;  // prune: b(i) < o_k
      const double benefit =
          cand.reads * nearest_cost[cand.demand_index] - cand.write_penalty;
      if (benefit <= 0.0) continue;  // prune: non-positive benefit
      if (!found || benefit > best_benefit) {
        best_benefit = benefit;
        best_pos = write_pos;
        found = true;
      }
      if (write_pos != at) list[write_pos] = cand;
      ++write_pos;
    }
    list.resize(write_pos);

    if (found) {
      scheme.add(site, list[best_pos].object);
      ++local_stats.replicas_created;
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(best_pos));
    }
    if (list.empty()) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(slot));
      // Keep the round-robin cursor pointing at the element that shifted
      // into the vacated slot.
      cursor = slot;
    } else {
      cursor = slot + 1;
    }
  }

  // Audit (compiled out unless DREP_AUDIT=ON): the incremental scheme state
  // must match a from-scratch recomputation, and candidate pruning must have
  // been sound — at termination no pruned (site, object) pair may still fit
  // with positive benefit.
  DREP_AUDIT_ENFORCE("sra/solve",
                     ::drep::audit::merge(::drep::audit::check_scheme(scheme),
                                          ::drep::audit::check_sra_terminal(scheme)));

  DREP_COUNT("drep_sra_runs_total", 1);
  DREP_COUNT("drep_sra_site_visits_total", local_stats.site_visits);
  DREP_COUNT("drep_sra_benefit_evaluations_total",
             local_stats.benefit_evaluations);
  DREP_COUNT("drep_sra_replicas_created_total", local_stats.replicas_created);
  if (stats != nullptr) *stats = local_stats;
  AlgorithmResult result = make_result(std::move(scheme), watch.seconds());
  result.iterations = local_stats.site_visits;
  return result;
}

AlgorithmResult solve_sra(const core::Problem& problem) {
  util::Rng rng(0);
  return solve_sra(problem, SraConfig{}, rng);
}

}  // namespace drep::algo
