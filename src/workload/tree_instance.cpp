#include "workload/tree_instance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "net/shortest_paths.hpp"
#include "workload/generator.hpp"

namespace drep::workload {

namespace {

/// Parent index per non-root node under the configured shape. node 0 is the
/// root; node v > 0 attaches to a node in [0, v).
std::vector<std::size_t> draw_parents(const TreeInstanceConfig& config,
                                      util::Rng& rng) {
  const std::size_t m = config.sites;
  std::vector<std::size_t> parent(m, 0);
  if (config.shape == TreeInstanceConfig::Shape::kChain) {
    for (std::size_t v = 1; v < m; ++v) parent[v] = v - 1;
    return parent;
  }
  if (config.shape == TreeInstanceConfig::Shape::kStar) {
    return parent;  // all zeros
  }

  std::vector<std::size_t> depth(m, 0);
  std::vector<std::size_t> child_count(m, 0);
  std::vector<std::size_t> eligible;
  for (std::size_t v = 1; v < m; ++v) {
    eligible.clear();
    for (std::size_t u = 0; u < v; ++u) {
      if (config.fanout == 0 || child_count[u] < config.fanout)
        eligible.push_back(u);
    }
    // fanout >= 1 guarantees at least one eligible node: a node saturates
    // only after accepting a child, and that child starts childless.
    if (config.depth_skew != 0.0 && rng.bernoulli(std::abs(config.depth_skew))) {
      // Restrict to the deepest (skew > 0) or shallowest (skew < 0) tier.
      std::size_t tier = depth[eligible.front()];
      for (const std::size_t u : eligible) {
        if (config.depth_skew > 0.0) {
          tier = std::max(tier, depth[u]);
        } else {
          tier = std::min(tier, depth[u]);
        }
      }
      std::vector<std::size_t> tiered;
      for (const std::size_t u : eligible) {
        if (depth[u] == tier) tiered.push_back(u);
      }
      eligible.swap(tiered);
    }
    const std::size_t p = eligible[rng.index(eligible.size())];
    parent[v] = p;
    depth[v] = depth[p] + 1;
    ++child_count[p];
  }
  return parent;
}

}  // namespace

void TreeInstanceConfig::validate() const {
  if (sites == 0) throw std::invalid_argument("TreeInstanceConfig: sites == 0");
  if (objects == 0)
    throw std::invalid_argument("TreeInstanceConfig: objects == 0");
  if (!(-1.0 <= depth_skew && depth_skew <= 1.0))
    throw std::invalid_argument(
        "TreeInstanceConfig: depth_skew outside [-1, 1]");
  if (link_cost_lo == 0 || link_cost_lo > link_cost_hi)
    throw std::invalid_argument("TreeInstanceConfig: bad link cost range");
  if (object_size_lo == 0 || object_size_lo > object_size_hi)
    throw std::invalid_argument("TreeInstanceConfig: bad object size range");
  if (reads_lo > reads_hi)
    throw std::invalid_argument("TreeInstanceConfig: reads_lo > reads_hi");
  if (!std::isfinite(update_ratio_percent) || update_ratio_percent < 0.0)
    throw std::invalid_argument(
        "TreeInstanceConfig: update ratio must be finite and >= 0");
  if (clients_per_object > sites)
    throw std::invalid_argument(
        "TreeInstanceConfig: clients_per_object > sites");
  if (!std::isfinite(capacity_percent) || capacity_percent < 0.0)
    throw std::invalid_argument(
        "TreeInstanceConfig: capacity ratio must be finite and >= 0");
}

core::Problem generate_tree(const TreeInstanceConfig& config, util::Rng& rng) {
  config.validate();
  const std::size_t m = config.sites;
  const std::size_t n = config.objects;

  const std::vector<std::size_t> parent = draw_parents(config, rng);
  net::Graph tree(m);
  for (std::size_t v = 1; v < m; ++v) {
    const double weight = static_cast<double>(
        rng.uniform_u64(config.link_cost_lo, config.link_cost_hi));
    tree.add_edge(static_cast<net::SiteId>(parent[v]),
                  static_cast<net::SiteId>(v), weight);
  }
  net::CostMatrix costs =
      m == 1 ? net::CostMatrix(1, 0.0) : net::all_pairs_dijkstra(tree);

  std::vector<double> sizes(n);
  double total_size = 0.0;
  for (auto& size : sizes) {
    size = static_cast<double>(
        rng.uniform_u64(config.object_size_lo, config.object_size_hi));
    total_size += size;
  }

  std::vector<core::SiteId> primaries(n);
  for (auto& primary : primaries)
    primary = static_cast<core::SiteId>(rng.index(m));

  std::vector<double> capacities(m);
  if (config.capacity_percent == 0.0) {
    // Ample: every site can hold the full object population, so capacity
    // never couples the per-object subproblems and the tree DP is exact.
    capacities.assign(m, total_size);
  } else {
    std::vector<double> pinned(m, 0.0);
    for (std::size_t k = 0; k < n; ++k) pinned[primaries[k]] += sizes[k];
    const double capacity_mean =
        config.capacity_percent / 100.0 * total_size;
    for (std::size_t i = 0; i < m; ++i) {
      const double drawn =
          rng.uniform_real(capacity_mean / 2.0, 3.0 * capacity_mean / 2.0);
      capacities[i] = std::max(drawn, pinned[i]);
    }
  }

  core::Problem problem(std::move(costs), std::move(sizes),
                        std::move(primaries), std::move(capacities));

  // Reads: every site (or a per-object client subset) draws U{lo..hi}.
  std::vector<core::SiteId> all_sites(m);
  std::iota(all_sites.begin(), all_sites.end(), core::SiteId{0});
  for (core::ObjectId k = 0; k < n; ++k) {
    if (config.clients_per_object == 0) {
      for (core::SiteId i = 0; i < m; ++i) {
        problem.set_reads(i, k,
                          static_cast<double>(rng.uniform_u64(
                              config.reads_lo, config.reads_hi)));
      }
    } else {
      std::vector<core::SiteId> clients = all_sites;
      rng.shuffle(clients);
      clients.resize(config.clients_per_object);
      for (const core::SiteId i : clients) {
        problem.set_reads(i, k,
                          static_cast<double>(rng.uniform_u64(
                              config.reads_lo, config.reads_hi)));
      }
    }
  }

  // Updates: the paper's recipe — target U%·TR_k, final total drawn from
  // U(target/2, 3·target/2) rounded to an integer, scattered one request at
  // a time over all sites.
  for (core::ObjectId k = 0; k < n; ++k) {
    const double target =
        config.update_ratio_percent / 100.0 * problem.total_reads(k);
    if (target <= 0.0) continue;
    const double final_total =
        std::round(rng.uniform_real(target / 2.0, 3.0 * target / 2.0));
    scatter_requests(problem, k, final_total, /*writes=*/true, rng);
  }

  problem.validate();
  return problem;
}

}  // namespace drep::workload
