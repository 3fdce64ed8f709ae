#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/generators.hpp"

namespace drep::workload {

void GeneratorConfig::validate() const {
  if (sites == 0) throw std::invalid_argument("GeneratorConfig: sites == 0");
  if (objects == 0) throw std::invalid_argument("GeneratorConfig: objects == 0");
  // A non-finite ratio would reach scatter_requests as a request count.
  if (!std::isfinite(update_ratio_percent) || update_ratio_percent < 0.0)
    throw std::invalid_argument(
        "GeneratorConfig: update ratio must be finite and >= 0");
  if (!std::isfinite(capacity_percent) || capacity_percent < 0.0)
    throw std::invalid_argument(
        "GeneratorConfig: capacity ratio must be finite and >= 0");
  if (reads_lo > reads_hi)
    throw std::invalid_argument("GeneratorConfig: reads_lo > reads_hi");
  if (link_cost_lo == 0 || link_cost_lo > link_cost_hi)
    throw std::invalid_argument("GeneratorConfig: bad link cost range");
  if (object_size_lo == 0 || object_size_lo > object_size_hi)
    throw std::invalid_argument("GeneratorConfig: bad object size range");
}

void scatter_requests(core::Problem& problem, core::ObjectId k, double count,
                      bool writes, util::Rng& rng) {
  // The paper adds requests "one by one to randomly chosen sites"; a
  // request-at-a-time multinomial scatter. Fractional remainders are
  // assigned with matching probability so expected totals are exact.
  const auto whole = static_cast<std::uint64_t>(count);
  const double frac = count - static_cast<double>(whole);
  const std::size_t m = problem.sites();
  for (std::uint64_t req = 0; req < whole; ++req) {
    const auto site = static_cast<core::SiteId>(rng.index(m));
    if (writes) {
      problem.add_writes(site, k, 1.0);
    } else {
      problem.add_reads(site, k, 1.0);
    }
  }
  if (frac > 0.0 && rng.bernoulli(frac)) {
    const auto site = static_cast<core::SiteId>(rng.index(m));
    if (writes) {
      problem.add_writes(site, k, 1.0);
    } else {
      problem.add_reads(site, k, 1.0);
    }
  }
}

core::Problem generate(const GeneratorConfig& config, util::Rng& rng) {
  config.validate();
  const std::size_t m = config.sites;
  const std::size_t n = config.objects;

  net::CostMatrix costs = net::paper_cost_matrix(
      m, rng, config.link_cost_lo, config.link_cost_hi, config.metric_closure);

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

  // Capacity ~ U(C·T/2, 3C·T/2), then raised to hold the pinned primaries.
  std::vector<double> pinned(m, 0.0);
  for (std::size_t k = 0; k < n; ++k) pinned[primaries[k]] += sizes[k];
  const double capacity_mean = config.capacity_percent / 100.0 * total_size;
  std::vector<double> capacities(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double drawn =
        rng.uniform_real(capacity_mean / 2.0, 3.0 * capacity_mean / 2.0);
    capacities[i] = std::max(drawn, pinned[i]);
  }

  core::Problem problem(std::move(costs), std::move(sizes),
                        std::move(primaries), std::move(capacities));

  // Reads: U{reads_lo..reads_hi} per (site, object).
  for (core::SiteId i = 0; i < m; ++i) {
    for (core::ObjectId k = 0; k < n; ++k) {
      problem.set_reads(
          i, k,
          static_cast<double>(rng.uniform_u64(config.reads_lo, config.reads_hi)));
    }
  }

  // Updates: target U%·TR_k, final total ~ U(target/2, 3·target/2),
  // scattered uniformly over sites.
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
