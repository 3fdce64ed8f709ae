#include "sim/epochs.hpp"

#include "audit/gate.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace drep::sim {

EpochReport run_epochs(core::Problem problem, const EpochConfig& config,
                       util::Rng& rng) {
  DREP_SPAN("sim/epochs");
  // Drift draws come from a dedicated stream so that every policy sees the
  // identical pattern trajectory regardless of how much randomness its own
  // optimizations consume.
  util::Rng drift_rng = rng.fork(0xD21F7);

  Monitor monitor(problem, config.monitor, rng);
  // The scheme in force, bound to the drifting `problem`. It is only ever
  // built from a chromosome, and its nearest cache depends only on R_k and C,
  // so it faces each epoch's drifted pattern as it is.
  core::ReplicationScheme active(problem, monitor.current_scheme());

  EpochReport report;
  report.stale_savings.reserve(config.epochs);
  report.epoch_served.reserve(config.epochs);
  report.epoch_migration.reserve(config.epochs + 1);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    DREP_SPAN("sim/epoch");
    DREP_COUNT("drep_epochs_total", 1);
    (void)workload::apply_pattern_change(problem, config.drift, drift_rng);
    report.stale_savings.push_back(core::savings_percent(problem, active));

    std::size_t adapted = 0;
    double epoch_migration = 0.0;
    if (config.policy == AdaptationPolicy::kAgraOnDrift) {
      adapted = monitor.adapt(problem, rng).size();
      if (adapted > 0) {
        core::ReplicationScheme next(problem, monitor.current_scheme());
        epoch_migration = core::migration_cost(active, next);
        report.migration_traffic += epoch_migration;
        DREP_COUNT("drep_epochs_migration_traffic_units_total",
                   epoch_migration);
        active = std::move(next);
      }
    }
    // Audit (compiled out unless DREP_AUDIT=ON): the scheme serving this
    // epoch must be internally consistent before its traffic is charged.
    DREP_AUDIT_ENFORCE("epochs/epoch", ::drep::audit::check_scheme(active));
    report.adapted_savings.push_back(core::savings_percent(problem, active));
    report.objects_adapted.push_back(adapted);
    const double epoch_served = core::total_cost(active);
    report.epoch_served.push_back(epoch_served);
    report.epoch_migration.push_back(epoch_migration);
    report.served_traffic += epoch_served;
  }

  if (config.policy == AdaptationPolicy::kNightlyOnly) {
    // The night run happens after the day: charged for migration so the
    // policy comparison stays fair, but too late to help today's traffic.
    monitor.reoptimize(problem, rng);
    core::ReplicationScheme next(problem, monitor.current_scheme());
    const double night_migration = core::migration_cost(active, next);
    report.epoch_migration.push_back(night_migration);
    report.migration_traffic += night_migration;
  }
  // Audit: the traffic totals must equal the per-epoch charges they were
  // accumulated from.
  DREP_AUDIT_ENFORCE("epochs/run",
                     ::drep::audit::check_epoch_accounting(
                         report.served_traffic, report.epoch_served,
                         report.migration_traffic, report.epoch_migration));
  return report;
}

}  // namespace drep::sim
