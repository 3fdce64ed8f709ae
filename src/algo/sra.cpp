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

/// A live candidate: object k at demand cell z of its site, keyed in the
/// site's heap by `bound`, its Eq. 5 benefit B_k(i) when last evaluated.
/// The benefit terms that stay constant over the candidate's lifetime are
/// baked in at list build — its site is fixed, so the write penalty
/// (TW_k - w_k(i)) · C(i, SP_k) never changes, and neither do r_k(i) or
/// o_k. An evaluation then reads one scattered double (the nearest-cost
/// cache); every precomputed double is the product core::local_benefit
/// forms, so benefits are bit-identical to it.
struct Candidate {
  double bound = 0.0;          // benefit when last evaluated, >= current
  double reads = 0.0;          // r_k(i)
  double write_penalty = 0.0;  // (TW_k - w_k(i)) * C(i, SP_k)
  double size = 0.0;           // o_k
  std::size_t demand_index = 0;
  core::ObjectId object = 0;
};

/// Heap order: the larger bound first; equal bounds go to the lower object
/// id, the scan's tie-break.
bool before(const Candidate& a, const Candidate& b) {
  return a.bound > b.bound || (a.bound == b.bound && a.object < b.object);
}

/// Moves heap[0] down to its place in the heap order.
void sift_down(std::vector<Candidate>& heap) {
  const Candidate moving = heap[0];
  std::size_t at = 0;
  for (std::size_t child = 1; child < heap.size(); child = 2 * at + 1) {
    if (child + 1 < heap.size() && before(heap[child + 1], heap[child]))
      ++child;
    if (!before(heap[child], moving)) break;
    heap[at] = heap[child];
    at = child;
  }
  heap[at] = moving;
}

void pop_top(std::vector<Candidate>& heap) {
  heap[0] = heap.back();
  heap.pop_back();
  if (!heap.empty()) sift_down(heap);
}

/// Settles a site's heap at free capacity `free` (Minoux's lazy greedy).
/// A top that no longer fits is popped for good, since capacity only
/// shrinks while SRA runs; so is a top whose benefit is no longer positive,
/// since benefits only fall. A top whose benefit fell below its bound is
/// re-keyed and sifted down. The loop stops at a top whose benefit equals
/// its bound: every other bound is at least its candidate's benefit, and
/// equal bounds order by object id, so that top is the scan's first
/// maximal candidate. Returns false when the heap empties.
bool settle(std::vector<Candidate>& heap, double free, double slack,
            const double* nearest_cost, std::size_t& evaluations) {
  while (!heap.empty()) {
    Candidate& top = heap[0];
    ++evaluations;
    if (!(free >= top.size - slack)) {  // prune: b(i) < o_k
      pop_top(heap);
      continue;
    }
    const double benefit =
        top.reads * nearest_cost[top.demand_index] - top.write_penalty;
    if (benefit <= 0.0) {  // prune: non-positive benefit
      pop_top(heap);
      continue;
    }
    if (benefit == top.bound) return true;
    top.bound = benefit;
    sift_down(heap);
  }
  return false;
}

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
  std::vector<double> initial_free(m);
  std::vector<double> slack(m);
  for (core::SiteId i = 0; i < m; ++i) {
    initial_free[i] = scheme.free_capacity(i);
    slack[i] = scheme.capacity_slack(i);
  }

  // L(i): the paper lists every object site i does not hold and that fits.
  // Benefits only fall while SRA runs, so a candidate whose benefit is
  // already non-positive at the start is evaluated once, at its site's
  // first visit, and pruned there. That holds for every cell with
  // r_k(i) = 0 (its benefit is -(TW_k - w_k(i))·C(i,SP_k) <= 0), stored or
  // not. The list therefore splits:
  //   * live candidates (nonzero-read cells with positive initial benefit),
  //     one heap per site keyed by that benefit;
  //   * dead candidates (every other fitting non-primary object), carried
  //     as a per-site COUNT that is flushed into benefit_evaluations at the
  //     site's first visit; the site stays in LS until then.
  // Before any replica exists SN_k(i) = SP_k, so the initial benefit reads
  // C(i, SP_k) from SP_k's cost row; each expression is the one fits() and
  // Eq. 5 form.
  std::vector<std::vector<Candidate>> heaps(m);
  for (core::ObjectId k = 0; k < n; ++k) {
    const core::SiteId sp = problem.primary(k);
    const auto sp_row = problem.costs().row(sp);  // C(SP_k, i) == C(i, SP_k)
    const double total_writes = problem.total_writes(k);
    const double size = problem.object_size(k);
    const auto sites = problem.demand_sites(k);
    const std::size_t begin = problem.demand_begin(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      const std::size_t z = begin + j;
      const core::SiteId i = sites[j];
      if (i == sp || demand_reads[z] == 0.0 ||
          !(initial_free[i] >= size - slack[i]))
        continue;
      const double penalty = (total_writes - demand_writes[z]) * sp_row[i];
      const double benefit = demand_reads[z] * sp_row[i] - penalty;
      if (benefit <= 0.0) continue;
      heaps[i].push_back({benefit, demand_reads[z], penalty, size, z, k});
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
    const std::size_t fitting =
        count_fitting(sorted_sizes, initial_free[i], slack[i]);
    const std::size_t fitting_primaries =
        count_fitting(primary_sizes[i], initial_free[i], slack[i]);
    dead[i] = fitting - fitting_primaries - heaps[i].size();
    std::make_heap(heaps[i].begin(), heaps[i].end(),
                   [](const Candidate& a, const Candidate& b) {
                     return before(b, a);
                   });
  }

  // LS: sites with a non-empty candidate list (live or dead).
  std::vector<core::SiteId> active;
  active.reserve(m);
  for (core::SiteId i = 0; i < m; ++i) {
    if (!heaps[i].empty() || dead[i] != 0) active.push_back(i);
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

    // Replicate the best strictly-positive candidate, then settle the next
    // top at the capacity read before the add, as the paper's scan prunes
    // its list: the site stays in LS exactly while some other candidate
    // fits with positive benefit. The add changes only the chosen object's
    // nearest costs, so the other candidates' benefits are the ones the
    // scan saw.
    auto& heap = heaps[site];
    const double site_free = scheme.free_capacity(site);
    const double* nearest_cost = scheme.nearest_cost_data();
    if (settle(heap, site_free, slack[site], nearest_cost,
               local_stats.benefit_evaluations)) {
      scheme.add(site, heap[0].object);
      ++local_stats.replicas_created;
      pop_top(heap);
      (void)settle(heap, site_free, slack[site], nearest_cost,
                   local_stats.benefit_evaluations);
    }
    if (heap.empty()) {
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
