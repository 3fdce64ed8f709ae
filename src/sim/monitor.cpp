#include "sim/monitor.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "algo/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace drep::sim {

namespace {
std::vector<double> totals(const core::Problem& problem, bool writes) {
  std::vector<double> result(problem.objects());
  for (core::ObjectId k = 0; k < problem.objects(); ++k)
    result[k] = writes ? problem.total_writes(k) : problem.total_reads(k);
  return result;
}

/// Registry dispatch for the monitor's GRA runs. The monitor owns
/// long-lived deterministic RNG streams, so they ride in options.rng — the
/// registry path then consumes the stream exactly like a direct solve_gra
/// call would.
algo::SolveResponse run_gra(const core::Problem& problem,
                            const algo::GraConfig& config, util::Rng& rng) {
  algo::SolverOptions options;
  options.gra = config;
  options.common = config.common;
  options.rng = &rng;
  return algo::solver_registry().at("gra").solve({problem, options});
}
}  // namespace

double deviation_percent(double baseline, double observed) {
  if (baseline == observed) return 0.0;
  if (baseline == 0.0) return std::numeric_limits<double>::infinity();
  return 100.0 * std::abs(observed - baseline) / baseline;
}

std::vector<core::ObjectId> changed_objects(
    std::span<const double> baseline_reads,
    std::span<const double> baseline_writes, const core::Problem& observed,
    double threshold_percent) {
  std::vector<core::ObjectId> changed;
  for (core::ObjectId k = 0; k < observed.objects(); ++k) {
    const double read_dev =
        deviation_percent(baseline_reads[k], observed.total_reads(k));
    const double write_dev =
        deviation_percent(baseline_writes[k], observed.total_writes(k));
    if (read_dev >= threshold_percent || write_dev >= threshold_percent)
      changed.push_back(k);
  }
  return changed;
}

Monitor::Monitor(const core::Problem& baseline, const MonitorConfig& config,
                 util::Rng& rng)
    : config_(config) {
  config_.gra.validate();
  config_.agra.validate();
  algo::SolveResponse initial = run_gra(baseline, config_.gra, rng);
  adopt(baseline, initial.result.scheme.matrix(),
        std::move(initial.population));
}

std::vector<core::ObjectId> Monitor::detect_changes(
    const core::Problem& observed) const {
  if (observed.objects() != baseline_reads_.size())
    throw std::invalid_argument("Monitor: object count changed");
  return changed_objects(baseline_reads_, baseline_writes_, observed,
                         config_.change_threshold_percent);
}

std::vector<core::ObjectId> Monitor::adapt(const core::Problem& observed,
                                           util::Rng& rng) {
  DREP_SPAN("monitor/adapt");
  const std::vector<core::ObjectId> changed = detect_changes(observed);
  if (changed.empty()) return changed;
  DREP_COUNT("drep_monitor_adaptations_total", 1);
  DREP_COUNT("drep_monitor_objects_adapted_total", changed.size());
  std::vector<ga::Chromosome> retained;
  retained.reserve(population_.size());
  for (const auto& ind : population_) retained.push_back(ind.genes);
  algo::SolverOptions options;
  options.agra = config_.agra;
  options.common = config_.agra.common;
  options.rng = &rng;
  algo::SolveRequest request{observed, std::move(options)};
  request.adapt = algo::AdaptContext{&current_scheme_, retained, changed};
  algo::SolveResponse result =
      algo::solver_registry().at("agra").solve(request);
  adopt(observed, result.result.scheme.matrix(), std::move(result.population));
  return changed;
}

void Monitor::reoptimize(const core::Problem& observed, util::Rng& rng) {
  DREP_SPAN("monitor/reoptimize");
  DREP_COUNT("drep_monitor_reoptimizations_total", 1);
  algo::SolveResponse result = run_gra(observed, config_.gra, rng);
  adopt(observed, result.result.scheme.matrix(),
        std::move(result.population));
}

double Monitor::current_savings_percent(const core::Problem& observed) const {
  core::ReplicationScheme scheme(observed, current_scheme_);
  return core::savings_percent(observed, scheme);
}

void Monitor::adopt(const core::Problem& observed, ga::Chromosome scheme,
                    std::vector<algo::Individual> population) {
  baseline_reads_ = totals(observed, /*writes=*/false);
  baseline_writes_ = totals(observed, /*writes=*/true);
  current_scheme_ = std::move(scheme);
  population_ = std::move(population);
}

}  // namespace drep::sim
