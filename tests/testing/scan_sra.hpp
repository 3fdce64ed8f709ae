#pragma once
// The reference SRA: the paper's loop as written, rescanning a visited
// site's whole candidate list L(i) at every visit. algo::solve_sra finds
// the same picks from per-site lazy heaps; this scan is the oracle the
// SraLazyHeap suite holds it to (same placements, cost bits, site visits,
// replicas created and rng draws). Its benefit_evaluations count the
// scan's evaluations, so they differ from the heap's by design.

#include <cstddef>
#include <utility>
#include <vector>

#include "algo/sra.hpp"
#include "util/timer.hpp"

namespace drep::testing {

inline algo::AlgorithmResult scan_sra(const core::Problem& problem,
                                      const algo::SraConfig& config,
                                      util::Rng& rng,
                                      algo::SraStats* stats = nullptr) {
  util::Stopwatch watch;
  core::ReplicationScheme scheme(problem);
  const std::size_t m = problem.sites();
  const std::size_t n = problem.objects();
  const auto demand_reads = problem.demand_reads();
  const auto demand_writes = problem.demand_writes();

  struct Candidate {
    core::ObjectId object = 0;
    std::size_t demand_index = 0;
    double reads = 0.0;          // r_k(i)
    double write_penalty = 0.0;  // (TW_k - w_k(i)) * C(i, SP_k)
    double size = 0.0;           // o_k
  };

  // Live candidates (positive initial benefit), in ascending object order.
  std::vector<std::vector<Candidate>> candidates(m);
  const double* initial_cost = scheme.nearest_cost_data();
  for (core::ObjectId k = 0; k < n; ++k) {
    const core::SiteId sp = problem.primary(k);
    const auto sp_row = problem.costs().row(sp);
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

  // Dead candidates: every other fitting non-primary object, counted by
  // brute force over the M·N pairs.
  std::vector<std::size_t> dead(m, 0);
  for (core::SiteId i = 0; i < m; ++i) {
    std::size_t fitting = 0;
    for (core::ObjectId k = 0; k < n; ++k) {
      if (problem.primary(k) != i && scheme.fits(i, k)) ++fitting;
    }
    dead[i] = fitting - candidates[i].size();
  }

  std::vector<core::SiteId> active;
  for (core::SiteId i = 0; i < m; ++i) {
    if (!candidates[i].empty() || dead[i] != 0) active.push_back(i);
  }

  algo::SraStats local_stats;
  std::size_t cursor = 0;
  while (!active.empty()) {
    ++local_stats.site_visits;
    const std::size_t slot =
        config.site_order == algo::SraConfig::SiteOrder::kRandom
            ? rng.index(active.size())
            : cursor % active.size();
    const core::SiteId site = active[slot];
    local_stats.benefit_evaluations += dead[site];
    dead[site] = 0;

    // One pass over the live list: the first strictly-positive maximum
    // wins (lowest object id on ties); unfit and unprofitable candidates
    // are pruned against the capacity before the add.
    double best_benefit = 0.0;
    std::size_t best_pos = 0;
    bool found = false;
    auto& list = candidates[site];
    const double* nearest_cost = scheme.nearest_cost_data();
    std::size_t write_pos = 0;
    for (std::size_t at = 0; at < list.size(); ++at) {
      const Candidate cand = list[at];
      ++local_stats.benefit_evaluations;
      if (!scheme.fits(site, cand.object)) continue;
      const double benefit =
          cand.reads * nearest_cost[cand.demand_index] - cand.write_penalty;
      if (benefit <= 0.0) continue;
      if (!found || benefit > best_benefit) {
        best_benefit = benefit;
        best_pos = write_pos;
        found = true;
      }
      list[write_pos++] = cand;
    }
    list.resize(write_pos);

    if (found) {
      scheme.add(site, list[best_pos].object);
      ++local_stats.replicas_created;
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(best_pos));
    }
    if (list.empty()) {
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(slot));
      cursor = slot;
    } else {
      cursor = slot + 1;
    }
  }

  if (stats != nullptr) *stats = local_stats;
  algo::AlgorithmResult result =
      algo::make_result(std::move(scheme), watch.seconds());
  result.iterations = local_stats.site_visits;
  return result;
}

}  // namespace drep::testing
