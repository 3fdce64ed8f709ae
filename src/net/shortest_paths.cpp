#include "net/shortest_paths.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <utility>

namespace drep::net {

std::vector<double> dijkstra(const Graph& graph, SiteId source) {
  if (source >= graph.sites())
    throw std::invalid_argument("dijkstra: source out of range");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(graph.sites(), kInf);
  using Entry = std::pair<double, SiteId>;  // (distance, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  dist[source] = 0.0;
  frontier.emplace(0.0, source);
  while (!frontier.empty()) {
    const auto [d, v] = frontier.top();
    frontier.pop();
    if (d > dist[v]) continue;  // stale entry
    for (const Edge& e : graph.neighbors(v)) {
      const double candidate = d + e.weight;
      if (candidate < dist[e.to]) {
        dist[e.to] = candidate;
        frontier.emplace(candidate, e.to);
      }
    }
  }
  return dist;
}

namespace {
void require_all_finite(const std::vector<double>& dist, const char* what) {
  for (double d : dist) {
    if (!std::isfinite(d))
      throw std::invalid_argument(std::string(what) + ": graph is disconnected");
  }
}
}  // namespace

CostMatrix all_pairs_dijkstra(const Graph& graph) {
  CostMatrix costs(graph.sites());
  for (SiteId src = 0; src < graph.sites(); ++src) {
    const auto dist = dijkstra(graph, src);
    require_all_finite(dist, "all_pairs_dijkstra");
    for (SiteId dst = 0; dst < graph.sites(); ++dst) {
      if (dst != src) costs.set(src, dst, dist[dst]);
    }
  }
  return costs;
}

CostMatrix floyd_warshall(const Graph& graph) {
  const std::size_t m = graph.sites();
  CostMatrix costs(m);
  for (SiteId v = 0; v < m; ++v) {
    for (const Edge& e : graph.neighbors(v)) {
      if (e.weight < costs.at(v, e.to)) costs.set(v, e.to, e.weight);
    }
  }
  CostMatrix closed = metric_closure(costs);
  for (SiteId i = 0; i < m; ++i) {
    for (SiteId j = 0; j < m; ++j) {
      if (!std::isfinite(closed.at(i, j)))
        throw std::invalid_argument("floyd_warshall: graph is disconnected");
    }
  }
  return closed;
}

Graph minimum_spanning_tree(const CostMatrix& costs) {
  const std::size_t m = costs.sites();
  if (m == 0)
    throw std::invalid_argument("minimum_spanning_tree: empty matrix");
  Graph tree(m);
  if (m == 1) return tree;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<bool> in_tree(m, false);
  std::vector<double> best(m, kInf);
  std::vector<SiteId> parent(m, 0);
  best[0] = 0.0;
  for (std::size_t step = 0; step < m; ++step) {
    SiteId next = 0;
    double next_cost = kInf;
    for (SiteId v = 0; v < m; ++v) {
      if (!in_tree[v] && best[v] < next_cost) {
        next = v;
        next_cost = best[v];
      }
    }
    if (!std::isfinite(next_cost))
      throw std::invalid_argument("minimum_spanning_tree: non-finite costs");
    in_tree[next] = true;
    if (next != 0) tree.add_edge(next, parent[next], costs.at(next, parent[next]));
    const auto row = costs.row(next);
    for (SiteId v = 0; v < m; ++v) {
      if (!in_tree[v] && row[v] < best[v]) {
        best[v] = row[v];
        parent[v] = next;
      }
    }
  }
  return tree;
}

CostMatrix metric_closure(const CostMatrix& costs) {
  const std::size_t m = costs.sites();
  CostMatrix closed = costs;
  double* const cells = closed.cells_.data();
  // Floyd–Warshall over raw rows. Round k reads row k, which it cannot
  // change (d_kk = 0), and the matrix stays symmetric without mirrored
  // writes: d_ik + d_kj and d_jk + d_ki are the same sum.
  for (std::size_t k = 0; k < m; ++k) {
    const double* const row_k = cells + k * m;
    for (std::size_t i = 0; i < m; ++i) {
      double* const row_i = cells + i * m;
      const double ik = row_i[k];
      if (!std::isfinite(ik)) continue;
      for (std::size_t j = 0; j < m; ++j)
        row_i[j] = std::min(row_i[j], ik + row_k[j]);
    }
  }
  return closed;
}

}  // namespace drep::net
