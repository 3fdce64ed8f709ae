#include "net/generators.hpp"

#include <numeric>
#include <stdexcept>

#include "net/shortest_paths.hpp"

namespace drep::net {

namespace {
void require_sites(std::size_t sites, std::size_t minimum, const char* what) {
  if (sites < minimum)
    throw std::invalid_argument(std::string(what) + ": too few sites");
}
double draw_cost(std::uint64_t lo, std::uint64_t hi, util::Rng& rng) {
  if (lo == 0 || lo > hi)
    throw std::invalid_argument("cost range must satisfy 1 <= lo <= hi");
  return static_cast<double>(rng.uniform_u64(lo, hi));
}
}  // namespace

Graph complete_uniform_graph(std::size_t sites, std::uint64_t cost_lo,
                             std::uint64_t cost_hi, util::Rng& rng) {
  require_sites(sites, 1, "complete_uniform_graph");
  Graph graph(sites);
  for (SiteId i = 0; i < sites; ++i) {
    for (SiteId j = i + 1; j < sites; ++j) {
      graph.add_edge(i, j, draw_cost(cost_lo, cost_hi, rng));
    }
  }
  return graph;
}

Graph random_connected_graph(std::size_t sites, double edge_prob,
                             std::uint64_t cost_lo, std::uint64_t cost_hi,
                             util::Rng& rng) {
  require_sites(sites, 1, "random_connected_graph");
  if (!(0.0 <= edge_prob && edge_prob <= 1.0))
    throw std::invalid_argument("random_connected_graph: edge_prob outside [0,1]");
  Graph graph(sites);
  // Random spanning tree: attach each vertex to a random earlier one after a
  // random relabelling, so every labelled tree shape is reachable.
  std::vector<SiteId> order(sites);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<std::vector<bool>> linked(sites, std::vector<bool>(sites, false));
  for (std::size_t v = 1; v < sites; ++v) {
    const SiteId child = order[v];
    const SiteId parent = order[rng.index(v)];
    graph.add_edge(child, parent, draw_cost(cost_lo, cost_hi, rng));
    linked[child][parent] = linked[parent][child] = true;
  }
  for (SiteId i = 0; i < sites; ++i) {
    for (SiteId j = i + 1; j < sites; ++j) {
      if (!linked[i][j] && rng.bernoulli(edge_prob)) {
        graph.add_edge(i, j, draw_cost(cost_lo, cost_hi, rng));
      }
    }
  }
  return graph;
}

Graph ring_graph(std::size_t sites, double cost) {
  require_sites(sites, 3, "ring_graph");
  Graph graph(sites);
  for (SiteId i = 0; i < sites; ++i) {
    graph.add_edge(i, static_cast<SiteId>((i + 1) % sites), cost);
  }
  return graph;
}

Graph star_graph(std::size_t sites, double cost) {
  require_sites(sites, 2, "star_graph");
  Graph graph(sites);
  for (SiteId i = 1; i < sites; ++i) graph.add_edge(0, i, cost);
  return graph;
}

Graph random_tree(std::size_t sites, std::uint64_t cost_lo,
                  std::uint64_t cost_hi, util::Rng& rng) {
  require_sites(sites, 1, "random_tree");
  Graph graph(sites);
  for (SiteId v = 1; v < sites; ++v) {
    const SiteId parent = static_cast<SiteId>(rng.index(v));
    graph.add_edge(v, parent, draw_cost(cost_lo, cost_hi, rng));
  }
  return graph;
}

CostMatrix paper_cost_matrix(std::size_t sites, util::Rng& rng,
                             std::uint64_t cost_lo, std::uint64_t cost_hi,
                             bool apply_closure) {
  require_sites(sites, 1, "paper_cost_matrix");
  CostMatrix costs(sites);
  for (SiteId i = 0; i < sites; ++i) {
    for (SiteId j = i + 1; j < sites; ++j) {
      costs.set(i, j, draw_cost(cost_lo, cost_hi, rng));
    }
  }
  return apply_closure ? metric_closure(costs) : costs;
}

}  // namespace drep::net
