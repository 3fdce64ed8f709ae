#include "algo/adr.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/shortest_paths.hpp"
#include "util/timer.hpp"

namespace drep::algo {

namespace {

using core::ObjectId;
using core::SiteId;

/// Rooted view of the tree for one object: parents and a BFS order from the
/// object's primary, plus per-subtree read/write sums.
struct RootedTree {
  std::vector<SiteId> parent;
  std::vector<SiteId> order;  // BFS from the root; order[0] == root
  std::vector<double> subtree_reads;
  std::vector<double> subtree_writes;
};

RootedTree root_at(const net::Graph& tree, const core::Problem& problem,
                   ObjectId k, SiteId root) {
  const std::size_t m = tree.sites();
  RootedTree rooted;
  rooted.parent.assign(m, root);
  rooted.order.reserve(m);
  std::vector<bool> seen(m, false);
  rooted.order.push_back(root);
  seen[root] = true;
  for (std::size_t head = 0; head < rooted.order.size(); ++head) {
    const SiteId u = rooted.order[head];
    for (const net::Edge& e : tree.neighbors(u)) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        rooted.parent[e.to] = u;
        rooted.order.push_back(e.to);
      }
    }
  }
  rooted.subtree_reads.assign(m, 0.0);
  rooted.subtree_writes.assign(m, 0.0);
  for (std::size_t idx = rooted.order.size(); idx > 0; --idx) {
    const SiteId u = rooted.order[idx - 1];
    rooted.subtree_reads[u] += problem.reads(u, k);
    rooted.subtree_writes[u] += problem.writes(u, k);
    if (u != root) {
      rooted.subtree_reads[rooted.parent[u]] += rooted.subtree_reads[u];
      rooted.subtree_writes[rooted.parent[u]] += rooted.subtree_writes[u];
    }
  }
  return rooted;
}

}  // namespace

AlgorithmResult solve_adr(const core::Problem& problem, const net::Graph& tree,
                          const AdrConfig& config, AdrStats* stats) {
  util::Stopwatch watch;
  if (tree.sites() != problem.sites())
    throw std::invalid_argument("solve_adr: tree does not span the sites");
  if (tree.edge_count() + 1 != tree.sites() || !tree.connected())
    throw std::invalid_argument("solve_adr: graph is not a spanning tree");

  core::ReplicationScheme scheme(problem);
  AdrStats local;
  // R_k as a site mask, kept beside the scheme while object k is processed:
  // the passes test membership per tree edge, and a mask answers in O(1).
  std::vector<char> held(problem.sites(), 0);

  for (ObjectId k = 0; k < problem.objects(); ++k) {
    const SiteId root = problem.primary(k);
    std::fill(held.begin(), held.end(), 0);
    held[root] = 1;
    const RootedTree rooted = root_at(tree, problem, k, root);
    const double total_reads = problem.total_reads(k);
    const double total_writes = problem.total_writes(k);

    // Requests "beyond" neighbour j as seen from u: j's subtree when j is
    // u's child, everything outside u's subtree when j is u's parent.
    const auto beyond_reads = [&](SiteId u, SiteId j) {
      return rooted.parent[j] == u ? rooted.subtree_reads[j]
                                   : total_reads - rooted.subtree_reads[u];
    };
    const auto beyond_writes = [&](SiteId u, SiteId j) {
      return rooted.parent[j] == u ? rooted.subtree_writes[j]
                                   : total_writes - rooted.subtree_writes[u];
    };

    bool changed = true;
    std::size_t round = 0;
    while (changed && round < config.max_rounds) {
      changed = false;
      ++round;
      // Expansion pass over border edges.
      for (SiteId u = 0; u < problem.sites(); ++u) {
        if (held[u] == 0) continue;
        for (const net::Edge& e : tree.neighbors(u)) {
          const SiteId j = e.to;
          if (held[j] != 0) continue;
          if (config.respect_capacity && !scheme.fits(j, k)) continue;
          const double gain = beyond_reads(u, j);
          const double cost = total_writes - beyond_writes(u, j);
          if (gain > cost) {
            scheme.add(j, k);
            held[j] = 1;
            ++local.expansions;
            changed = true;
          }
        }
      }
      // Contraction pass over fringe replicas (never the primary).
      for (SiteId u = 0; u < problem.sites(); ++u) {
        if (u == root || held[u] == 0) continue;
        std::size_t replicated_neighbors = 0;
        for (const net::Edge& e : tree.neighbors(u))
          replicated_neighbors += held[e.to] != 0 ? 1u : 0u;
        if (replicated_neighbors != 1) continue;  // not a fringe node
        // u's side of its single replicated edge is its own rooted subtree
        // (the replicated neighbour is u's parent: R always contains the
        // path to the root).
        const double side_reads = rooted.subtree_reads[u];
        const double elsewhere_writes = total_writes - rooted.subtree_writes[u];
        if (elsewhere_writes > side_reads) {
          scheme.remove(u, k);
          held[u] = 0;
          ++local.contractions;
          changed = true;
        }
      }
    }
    local.rounds = std::max(local.rounds, round);
  }

  if (stats != nullptr) *stats = local;
  AlgorithmResult result = make_result(std::move(scheme), watch.seconds());
  result.iterations = local.rounds;
  return result;
}

AlgorithmResult solve_adr_mst(const core::Problem& problem,
                              const AdrConfig& config, AdrStats* stats) {
  const net::Graph mst = net::minimum_spanning_tree(problem.costs());
  return solve_adr(problem, mst, config, stats);
}

}  // namespace drep::algo
