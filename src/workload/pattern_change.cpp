#include "workload/pattern_change.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "workload/generator.hpp"

namespace drep::workload {

void PatternChangeConfig::validate() const {
  if (!std::isfinite(change_percent) || change_percent < 0.0)
    throw std::invalid_argument(
        "PatternChangeConfig: change_percent must be finite and >= 0");
  if (!(0.0 <= objects_percent && objects_percent <= 100.0))
    throw std::invalid_argument(
        "PatternChangeConfig: objects_percent outside [0,100]");
  if (!(0.0 <= read_share_percent && read_share_percent <= 100.0))
    throw std::invalid_argument(
        "PatternChangeConfig: read_share_percent outside [0,100]");
  if (!(cluster_stddev_divisor > 0.0))
    throw std::invalid_argument(
        "PatternChangeConfig: cluster_stddev_divisor must be positive");
}

std::vector<core::ObjectId> PatternChangeReport::all_changed() const {
  std::vector<core::ObjectId> all = reads_increased;
  all.insert(all.end(), writes_increased.begin(), writes_increased.end());
  return all;
}

void clustered_updates(core::Problem& problem, core::ObjectId k, double count,
                       double sigma, util::Rng& rng) {
  const std::size_t m = problem.sites();
  const double centre = static_cast<double>(rng.index(m));
  const auto whole = static_cast<std::uint64_t>(count);
  const double frac = count - static_cast<double>(whole);
  // Carry the fractional part stochastically (same policy as
  // scatter_requests): truncating it would make small drifts — counts below
  // one request — vanish entirely. The bernoulli draw happens only for a
  // genuinely fractional count, so integral counts consume an unchanged RNG
  // stream.
  const std::uint64_t total =
      whole + ((frac > 0.0 && rng.bernoulli(frac)) ? 1 : 0);
  for (std::uint64_t req = 0; req < total; ++req) {
    const double drawn = std::round(rng.normal(centre, sigma));
    // Wrap modulo M so the cluster keeps its shape near the index edges.
    const double wrapped = drawn - std::floor(drawn / static_cast<double>(m)) *
                                       static_cast<double>(m);
    const auto site = static_cast<core::SiteId>(
        std::min<std::size_t>(static_cast<std::size_t>(wrapped), m - 1));
    problem.add_writes(site, k, 1.0);
  }
}

PatternChangeReport apply_pattern_change(core::Problem& problem,
                                         const PatternChangeConfig& config,
                                         util::Rng& rng) {
  config.validate();
  const std::size_t n = problem.objects();
  const auto changed_count = static_cast<std::size_t>(
      std::round(config.objects_percent / 100.0 * static_cast<double>(n)));

  std::vector<core::ObjectId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  order.resize(changed_count);

  const auto read_count = static_cast<std::size_t>(std::round(
      config.read_share_percent / 100.0 * static_cast<double>(changed_count)));

  PatternChangeReport report;
  const double factor = config.change_percent / 100.0;
  const double sigma =
      static_cast<double>(problem.sites()) / config.cluster_stddev_divisor;

  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const core::ObjectId k = order[idx];
    if (idx < read_count) {
      const double new_reads = std::round(factor * problem.total_reads(k));
      scatter_requests(problem, k, new_reads, /*writes=*/false, rng);
      report.reads_increased.push_back(k);
    } else {
      // The paper seeds even never-written objects with update load here; a
      // zero write total would make Ch% of zero a no-op, so fall back to the
      // read total as the base in that (rare) case.
      const double base = problem.total_writes(k) > 0.0
                              ? problem.total_writes(k)
                              : problem.total_reads(k);
      const double new_writes = std::round(factor * base);
      const double scattered_half = std::floor(new_writes / 2.0);
      scatter_requests(problem, k, scattered_half, /*writes=*/true, rng);
      clustered_updates(problem, k, new_writes - scattered_half, sigma, rng);
      report.writes_increased.push_back(k);
    }
  }
  return report;
}

}  // namespace drep::workload
