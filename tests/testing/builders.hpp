#pragma once
// Shared fixtures: tiny hand-checkable problems and randomized instances.

#include <vector>

#include "core/problem.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/tree_instance.hpp"

namespace drep::testing {

/// Three sites on a line with unit spacing (C = |i-j|), one object of size
/// `size` with its primary at site 0, ample capacity everywhere. Request
/// patterns left at zero for the test to fill in.
inline core::Problem line3_problem(double size = 10.0,
                                   double capacity = 1000.0) {
  net::CostMatrix costs(3);
  costs.set(0, 1, 1.0);
  costs.set(1, 2, 1.0);
  costs.set(0, 2, 2.0);
  return core::Problem(std::move(costs), {size}, {0},
                       {capacity, capacity, capacity});
}

/// Line of `m` sites, `n` objects, all primaries at site 0, uniform object
/// size and capacity. Patterns zeroed.
inline core::Problem line_problem(std::size_t m, std::size_t n,
                                  double object_size, double capacity) {
  net::CostMatrix costs(m);
  for (net::SiteId i = 0; i < m; ++i) {
    for (net::SiteId j = static_cast<net::SiteId>(i + 1); j < m; ++j) {
      costs.set(i, j, static_cast<double>(j - i));
    }
  }
  return core::Problem(std::move(costs),
                       std::vector<double>(n, object_size),
                       std::vector<core::SiteId>(n, 0),
                       std::vector<double>(m, capacity));
}

/// An instance with the given demand rows: rows[k] is object k's, ascending
/// by site id. A row listing every site is full, any other is partial.
inline core::Problem partial_row_problem(
    net::CostMatrix costs, std::vector<double> sizes,
    std::vector<core::SiteId> primaries, std::vector<double> capacities,
    const std::vector<std::vector<core::DemandEntry>>& rows) {
  return core::Problem(std::move(costs), std::move(sizes),
                       std::move(primaries), std::move(capacities),
                       [&rows](core::ObjectId k) { return rows.at(k); });
}

/// A paper-style random instance at reduced scale.
inline core::Problem small_random_problem(std::uint64_t seed,
                                          std::size_t sites = 12,
                                          std::size_t objects = 15,
                                          double update_percent = 5.0,
                                          double capacity_percent = 25.0) {
  workload::GeneratorConfig config;
  config.sites = sites;
  config.objects = objects;
  config.update_ratio_percent = update_percent;
  config.capacity_percent = capacity_percent;
  util::Rng rng(seed);
  return workload::generate(config, rng);
}

/// A seeded tree-topology instance with ample capacity — the regime where
/// the treedp/constclients oracles are exact.
inline core::Problem small_tree_problem(
    std::uint64_t seed, std::size_t sites = 8, std::size_t objects = 4,
    workload::TreeInstanceConfig::Shape shape =
        workload::TreeInstanceConfig::Shape::kRandom,
    std::size_t clients_per_object = 0) {
  workload::TreeInstanceConfig config;
  config.sites = sites;
  config.objects = objects;
  config.shape = shape;
  config.clients_per_object = clients_per_object;
  util::Rng rng(seed);
  return workload::generate_tree(config, rng);
}

}  // namespace drep::testing
