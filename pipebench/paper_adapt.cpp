// paper-adapt: the Section 6.3 adaptive case at paper scale.
//
// Why it exists: GA kernels (the nightly GRA, the per-epoch AGRA), DES
// message handling and the retry layers do nearly all of the work here. The
// 50 x 200 routing table (10k cells) fits in L2 and a freeze takes well
// under a millisecond, so serve and freeze changes should not move this
// workload: it is the "bypassed" side for serving optimizations.
//
// Pipeline, per iteration, on one of three networks in turn (savings_pct
// and day_ntc are their means): night GRA (Np=50, Ng=80) through the monitor,
// freeze + publish; then a fixed number of day epochs, each drawing a drift
// (Ch=600%, OCh=10%, R=50%) and its request trace, running one monitor
// retune round (AGRA plus the DES rollout), freezing and publishing the
// adopted scheme, replaying the epoch's trace through the DES, and routing
// it through the RCU domain (a closed-loop pass and the open-loop probe).
// The retune round and the replay share one seeded FaultPlan with 5% link
// drops.
//
// Trap avoided: drifting the same Problem again every epoch multiplies its
// traffic by 7 per epoch (10.8M requests over 8 epochs, with the DES replay
// taking most of the run), so every epoch's drift starts from the baseline.

#include <memory>
#include <optional>

#include "algo/solver.hpp"
#include "core/cost_model.hpp"
#include "harness.hpp"
#include "serve/audit.hpp"
#include "sim/access_replay.hpp"
#include "sim/monitor_protocol.hpp"
#include "workload/generator.hpp"
#include "workload/pattern_change.hpp"

namespace pipebench {

using namespace drep;

namespace {

/// Networks per run, cycled through by the iterations. Like the paper's
/// averaging over several random networks, this keeps the seed-to-seed
/// spread of savings and day NTC small: one 50 x 200 network's savings
/// range over 18-20.5% across seeds.
constexpr std::size_t kNetworks = 3;
constexpr std::size_t kSetupRepeats = 10;  // a few ms each
constexpr std::size_t kMinIterations = kNetworks;
constexpr std::size_t kEpochs = 4;
constexpr std::size_t kRoutePasses = 32;
constexpr std::size_t kProbeRequests = 100'000;

}  // namespace

void run_paper_adapt(const RunConfig& config, Report& report, Gate& gate) {
  const util::Rng root(config.seed);

  workload::GeneratorConfig instance_config;
  instance_config.sites = 50;
  instance_config.objects = 200;
  instance_config.update_ratio_percent = 5.0;
  instance_config.capacity_percent = 15.0;

  // --- set-up: instances and the initial RCU domain -----------------------
  // Network n draws everything from root.fork(n): instance 1, monitor 2,
  // drift 3, traces 4, fault plan 5.
  std::vector<double> setup_seconds;
  std::vector<double> build_seconds;
  std::vector<std::unique_ptr<core::Problem>> networks;
  std::unique_ptr<serve::RcuDomain> domain;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const util::Stopwatch start;
    std::vector<std::unique_ptr<core::Problem>> built;
    for (std::size_t n = 0; n < kNetworks; ++n) {
      util::Rng instance_rng = root.fork(n).fork(1);
      built.push_back(std::make_unique<core::Problem>(
          workload::generate(instance_config, instance_rng)));
    }
    build_seconds.push_back(start.seconds());
    auto initial = std::make_unique<serve::RcuDomain>(
        std::make_unique<const serve::SchemeSnapshot>(
            serve::SchemeSnapshot::freeze(core::ReplicationScheme(*built[0]),
                                          0)));
    setup_seconds.push_back(start.seconds());
    networks = std::move(built);
    domain = std::move(initial);
  }
  serve::RcuDomain::Reader reader = domain->reader();
  const double cells = static_cast<double>(instance_config.sites *
                                           instance_config.objects);

  sim::MonitorConfig monitor_config;
  monitor_config.gra.population = 50;
  monitor_config.gra.generations = 80;
  monitor_config.gra.common.threads = 4;
  monitor_config.agra.common.threads = 4;
  workload::PatternChangeConfig drift;
  drift.change_percent = 600.0;
  drift.objects_percent = 10.0;
  drift.read_share_percent = 50.0;
  sim::RetuneOptions retune_options;
  sim::ReplayOptions replay_options;

  // --- measured phase ------------------------------------------------------
  std::vector<double> solve_seconds;
  std::vector<double> retune_ms;
  double served_requests = 0.0;
  double served_seconds = 0.0;
  std::vector<std::vector<double>> savings(kNetworks);
  std::vector<std::vector<double>> day_ntc(kNetworks);
  LatencyHistogram route_latency;
  std::uint64_t generation = 0;
  std::size_t night_network = 0;
  std::optional<util::Rng> night_rng_start;

  Iterations it(config, kMinIterations);
  while (it.next()) {
    ObsDelta::begin();
    Tracer& tracer = it.tracer();
    (void)gate.take_seconds();
    const std::uint64_t reclaimed_before = domain->reclaimed();
    const util::Stopwatch start;

    const std::size_t n = it.index() % kNetworks;
    const core::Problem& baseline = *networks[n];
    const util::Rng network_root = root.fork(n);
    util::Rng monitor_rng = network_root.fork(2);
    util::Rng drift_rng = network_root.fork(3);
    util::Rng trace_rng = network_root.fork(4);
    sim::FaultPlan faults;
    faults.seed = network_root.fork(5).next();
    faults.drop_probability = 0.05;
    retune_options.faults = faults;
    replay_options.faults = faults;
    night_network = n;
    night_rng_start = monitor_rng;

    // Night: GRA through the monitor, frozen and published.
    std::optional<sim::Monitor> monitor;
    {
      auto span = tracer.span("algo.gra");
      const util::Stopwatch solve_start;
      monitor.emplace(baseline, monitor_config, monitor_rng);
      solve_seconds.push_back(solve_start.seconds());
    }
    {
      std::unique_ptr<const serve::SchemeSnapshot> night;
      {
        auto span = tracer.span("serve.freeze");
        const core::ReplicationScheme scheme(baseline,
                                             monitor->current_scheme());
        night = std::make_unique<const serve::SchemeSnapshot>(
            serve::SchemeSnapshot::freeze(scheme, ++generation));
      }
      gate.section([&] { gate.expect_intact(*night, "paper-adapt/night"); });
      auto span = tracer.span("serve.publish");
      domain->publish(std::move(night));
    }

    double day = 0.0;
    double night_savings = 0.0;
    double drift_s = 0.0, trace_s = 0.0, round_s = 0.0, replay_s = 0.0, freeze_s = 0.0,
           publish_s = 0.0, route_s = 0.0;
    std::uint64_t requests = 0, replay_messages = 0, retransmits = 0,
                  directives = 0, round_messages = 0, routed = 0;
    ProbeResult probe;
    gate.section(
        [&] { night_savings = monitor->current_savings_percent(baseline); });

    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      const std::string where =
          "paper-adapt/epoch " + std::to_string(epoch);
      core::Problem observed = baseline;
      {
        auto span = tracer.span("workload.drift");
        const util::Stopwatch t;
        (void)workload::apply_pattern_change(observed, drift, drift_rng);
        drift_s += t.seconds();
      }
      std::vector<workload::Request> trace;
      {
        auto span = tracer.span("workload.trace");
        const util::Stopwatch t;
        trace = workload::build_trace(observed, trace_rng);
        trace_s += t.seconds();
      }

      // Retune: drift observed -> AGRA round over the DES -> freeze ->
      // publish. Gate work inside the window is subtracted.
      const util::Stopwatch retune_start;
      double retune_gate = 0.0;
      sim::RetuneReport round;
      {
        auto span = tracer.span("sim.retune_round");
        const util::Stopwatch t;
        round = sim::run_retune_round(observed, *monitor, retune_options,
                                      monitor_rng);
        round_s += t.seconds();
      }
      std::optional<core::ReplicationScheme> adopted;
      std::unique_ptr<const serve::SchemeSnapshot> snapshot;
      {
        auto span = tracer.span("serve.freeze");
        const util::Stopwatch t;
        adopted.emplace(observed, monitor->current_scheme());
        snapshot = std::make_unique<const serve::SchemeSnapshot>(
            serve::SchemeSnapshot::freeze(*adopted, ++generation));
        freeze_s += t.seconds();
      }
      retune_gate += gate.section([&] {
        gate.expect_clean(audit::check_snapshot_coherence(*snapshot, *adopted),
                          where + ": snapshot coherence");
        gate.expect_conserved(round.traffic, where + " retune round");
        if (epoch == 0)
          it.layer("serve.snapshot_mb", held_mb([&] {
                     return serve::SchemeSnapshot::freeze(*adopted, 0);
                   }),
                   "MB");
      });
      {
        auto span = tracer.span("serve.publish");
        const util::Stopwatch t;
        domain->publish(std::move(snapshot));
        publish_s += t.seconds();
      }
      retune_ms.push_back(1e3 * (retune_start.seconds() - retune_gate));

      // The epoch's traffic through the DES.
      sim::ReplayResult replay;
      {
        auto span = tracer.span("sim.replay");
        const util::Stopwatch t;
        replay = sim::replay_trace(*adopted, trace, replay_options);
        replay_s += t.seconds();
      }
      // ... and through the serving front-end.
      double cost = 0.0;
      {
        auto span = tracer.span("serve.route");
        const double seconds = route_pass(reader, trace, kRoutePasses, cost);
        route_s += seconds;
        served_requests += static_cast<double>(trace.size() * kRoutePasses);
        served_seconds += seconds;
      }
      {
        auto span = tracer.span("serve.probe");
        const ProbeResult epoch_probe =
            open_loop_probe(reader, serve_from(trace), kProbeRate,
                            kProbeRequests, nullptr);
        probe.latency.merge(epoch_probe.latency);
        probe.lag.merge(epoch_probe.lag);
        probe.requests += epoch_probe.requests;
      }

      gate.section([&] {
        gate.expect_conserved(replay.traffic, where + " replay");
        day += core::total_cost(*adopted) + round.migration_traffic;
      });
      requests += trace.size();
      routed += trace.size() * kRoutePasses + kProbeRequests;
      replay_messages += replay.traffic.sent_messages;
      retransmits += replay.retry_stats.retries;
      directives += round.replicas_added;
      round_messages += round.traffic.sent_messages;
    }

    const double pipeline = start.seconds() - gate.take_seconds();
    savings[n].push_back(night_savings);
    day_ntc[n].push_back(day);
    route_latency.merge(probe.latency);
    report.add_attempted(requests + routed + 1 + 2 * kEpochs);

    if (it.traced()) {
      const ObsDelta obs = ObsDelta::end();
      const double evaluations = obs.counter("drep_gra_evaluations_total");
      it.layer("workload.drift_s", drift_s, "s");
      it.layer("workload.trace_s", trace_s, "s");
      it.layer("algo.gra.solve_s", solve_seconds.back(), "s");
      it.layer("algo.gra.evaluations", evaluations, "count");
      it.layer("core.delta_evals",
               obs.counter("drep_gra_delta_evaluations_total"), "count");
      it.layer("core.full_evals",
               obs.counter("drep_gra_full_evaluations_total"), "count");
      it.layer("ga.gene_repairs", obs.counter("drep_gra_gene_repairs_total"),
               "count");
      it.layer("util.pool_tasks", obs.counter("drep_pool_tasks_total"),
               "count");
      const double agra_s = obs.span_seconds("agra/solve");
      tracer.split("sim.retune_round", "algo.agra", agra_s);
      it.layer("algo.agra.retune_s", agra_s, "s");
      it.layer("algo.agra.objects_adapted",
               obs.counter("drep_agra_objects_adapted_total"), "count");
      it.layer("algo.agra.repairs",
               obs.counter("drep_agra_transcription_repairs_total"), "count");
      it.layer("serve.freeze_ms", 1e3 * freeze_s / kEpochs, "ms");
      it.layer("serve.freeze_ns_per_cell", 1e9 * freeze_s / kEpochs / cells,
               "ns");
      it.layer("serve.publish_us", 1e6 * publish_s / kEpochs, "us");
      it.layer("serve.reclaimed",
               static_cast<double>(domain->reclaimed() - reclaimed_before),
               "count");
      it.layer("serve.lookup_ns",
               1e9 * route_s /
                   static_cast<double>(requests * kRoutePasses),
               "ns");
      record_probe_layers(it, probe);
      // DES and retry-layer counts come from the program's own counters;
      // sent messages and retransmissions only exist in the reports.
      const double directives_failed =
          obs.counter("drep_retune_directives_failed_total");
      it.layer("sim.replay_s", replay_s, "s");
      it.layer("sim.replay_rps", static_cast<double>(requests) / replay_s,
               "1/s");
      it.layer("sim.messages", static_cast<double>(replay_messages), "count");
      it.layer("sim.ns_per_message",
               1e9 * obs.span_seconds("sim/replay") /
                   static_cast<double>(replay_messages),
               "ns");
      it.layer("sim.dropped",
               obs.counter("drep_des_dropped_link_total") +
                   obs.counter("drep_des_dropped_site_down_total"),
               "count");
      it.layer("sim.retransmits", static_cast<double>(retransmits), "count");
      it.layer("sim.degraded_reads",
               obs.counter("drep_replay_degraded_reads_total"), "count");
      it.layer("sim.stale_updates",
               obs.counter("drep_replay_stale_updates_total"), "count");
      it.layer("sim.failed_frac",
               (obs.counter("drep_replay_failed_requests_total") +
                directives_failed) /
                   static_cast<double>(requests + directives),
               "ratio");
      it.layer("sim.retune_round_s", round_s, "s");
      it.layer("sim.retune_messages", static_cast<double>(round_messages),
               "count");
      it.layer("sim.retune_retries",
               obs.counter("drep_retune_protocol_retries_total"), "count");
      it.layer("sim.directives_failed", directives_failed, "count");
      it.layer("sim.reports_missing",
               obs.counter("drep_retune_reports_missing_total"), "count");
    }
    it.finish(pipeline);
  }

  // --- gate: determinism across iterations, teardown ----------------------
  double mean_savings = 0.0;
  double mean_day = 0.0;
  for (std::size_t n = 0; n < kNetworks; ++n) {
    for (std::size_t i = 1; i < savings[n].size(); ++i) {
      gate.check(savings[n][i] == savings[n][0],
                 "paper-adapt: savings_pct differs between iterations of "
                 "one network");
      gate.check(day_ntc[n][i] == day_ntc[n][0],
                 "paper-adapt: day_ntc differs between iterations of one "
                 "network");
    }
    mean_savings += savings[n].front() / static_cast<double>(kNetworks);
    mean_day += day_ntc[n].front() / static_cast<double>(kNetworks);
  }
  domain->reclaim();
  gate.check(domain->retired_pending() == 0,
             "paper-adapt: retired snapshots pending at teardown");

  if (config.trace) {
    it.run_layer("workload.build_s", median(build_seconds), "s");
    it.run_layer("serve.retired_pending",
                 static_cast<double>(domain->retired_pending()), "count");
    // GraResult's full-equivalent work is not exposed through the monitor;
    // the night solve is a pure function of (problem, config, stream), so
    // re-running it from the same stream state reproduces it exactly.
    algo::SolverOptions options;
    options.gra = monitor_config.gra;
    options.common = monitor_config.gra.common;
    options.rng = &*night_rng_start;
    const algo::SolveResponse night =
        algo::solver_registry().at("gra").solve({*networks[night_network],
                                                 options});
    const obs::Json* work = night.details.find("full_equivalent_evaluations");
    const obs::Json* evals = night.details.find("evaluations");
    if (work != nullptr && evals != nullptr && evals->as_number() > 0.0)
      it.run_layer("algo.gra.full_equiv_per_eval",
                   work->as_number() / evals->as_number(), "ratio");
    it.report_layers(report);
    return;
  }
  report.set("setup_s", median(setup_seconds), "s");
  report.set("solve_s", util::mean_of(solve_seconds), "s");
  report.set("savings_pct", mean_savings, "%");
  report.set("retune_p50_ms", median(retune_ms), "ms");
  report.set("day_ntc", mean_day, "NTC");
  report.set("serve_rps", served_requests / served_seconds, "1/s");
  report_route(report, route_latency);
  report.set("pipeline_s", it.pipeline_seconds(), "s");
}

}  // namespace pipebench
