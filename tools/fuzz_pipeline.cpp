// Seeded end-to-end pipeline fuzzer (DESIGN.md Section 9).
//
// Each case is a pure function of {seed, sites, objects, epochs}: a problem
// is generated, driven through SRA → GRA (+ V_k cache churn) → the
// epoch simulation (all three adaptation policies) → distributed SRA
// (perfect and faulty) → trace replay (perfect and faulty, with every
// injection at t=0 and at a fractional spacing) → a monitor retune round
// (perfect and faulty) → the online engine (standalone vs DES replay,
// perfect and faulty, plus decision-log replay and registry determinism) →
// the serving front-end (snapshot freeze coherence plus a 1-vs-2-worker
// trace-replay determinism differential), and after every stage the
// audit::check_* validators cross-check the incremental state against
// from-scratch recomputation. The validators are called explicitly, so the
// fuzzer finds divergence in any build; compiling with -DDREP_AUDIT=ON
// additionally arms the inline hooks inside the solvers and catches mid-run
// corruption at its source.
//
// On failure the case is shrunk (halve sites, halve objects, collapse the
// epochs) while it still fails, and a replayable repro line is printed:
//
//   tools/fuzz_pipeline --seed=S --sites=M --objects=N --epochs=E
//
// --topology=tree switches to the oracle differential mode: each seed draws
// a tree-metric instance (testing/oracle_harness.hpp) and every registered
// solver is swept against the provable treedp optimum — bit-exact agreement
// with solve_exhaustive, cost agreement with constclients, validity and
// lower-bound checks for the heuristics.
//
// --decentralized switches to the dist conformance mode (DESIGN.md Section
// 15): per seed, dgra on a perfect network must be bit-for-bit the
// centralized gra from the same stream, a faulted dgra must stay within the
// degradation ceiling with clean envelope logs, and a decentralized
// adaptive round over 1–3 drifted sites (perfect and faulty) must assemble
// a valid scheme. A spike-only pass (reordering, no loss) must miss no
// dgra migration and fail no dagra directive.
//
// Exit status: 0 = every case clean, 1 = violations found, 2 = usage error.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algo/gra.hpp"
#include "algo/solver.hpp"
#include "algo/sra.hpp"
#include "audit/invariants.hpp"
#include "core/benefit.hpp"
#include "core/cost_model.hpp"
#include "dist/dagra.hpp"
#include "dist/dgra.hpp"
#include "dist/solver.hpp"
#include "online/engine.hpp"
#include "online/solver.hpp"
#include "serve/audit.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "sim/access_replay.hpp"
#include "sim/distributed_sra.hpp"
#include "sim/epochs.hpp"
#include "sim/monitor_protocol.hpp"
#include "testing/oracle_harness.hpp"
#include "testing/row_shapes.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/pattern_change.hpp"
#include "workload/stream_gen.hpp"
#include "workload/trace.hpp"
#include "workload/trace_modes.hpp"

namespace {

using namespace drep;

struct FuzzCase {
  std::uint64_t seed = 1;
  std::size_t sites = 0;    // 0 = derive from seed
  std::size_t objects = 0;  // 0 = derive from seed
  std::size_t epochs = 0;   // 0 = derive from seed
};

constexpr std::size_t kMinSites = 3;
constexpr std::size_t kMinObjects = 2;

/// Fills in unspecified dimensions from the seed, so `--seed=S` alone is a
/// complete repro and the sweep covers a range of shapes.
FuzzCase resolve(FuzzCase c) {
  util::Rng shape(c.seed ^ 0x5A17F00DULL);
  if (c.sites == 0) c.sites = 4 + shape.index(11);     // 4..14
  if (c.objects == 0) c.objects = 6 + shape.index(15); // 6..20
  if (c.epochs == 0) c.epochs = 1 + shape.index(3);    // 1..3
  return c;
}

std::string repro_line(const FuzzCase& c) {
  std::ostringstream out;
  out << "tools/fuzz_pipeline --seed=" << c.seed << " --sites=" << c.sites
      << " --objects=" << c.objects << " --epochs=" << c.epochs;
  return out.str();
}

void note(audit::Violations& out, const std::string& stage,
          audit::Violations found) {
  for (auto& v : found)
    out.push_back({stage + ": " + v.invariant, std::move(v.detail)});
}

audit::MessageCounts message_counts(const sim::TrafficStats& t) {
  return {.sent = t.sent_messages,
          .delivered_data = t.data_messages,
          .delivered_control = t.control_messages,
          .dropped_link = t.dropped_link,
          .dropped_site_down = t.dropped_site_down,
          .in_flight = 0};
}

/// A fault plan sized to the case: lossy links, latency spikes, and a crash
/// window on the highest site id (never the leader/monitor at site 0).
sim::FaultPlan make_faults(const FuzzCase& c) {
  sim::FaultPlan plan;
  plan.seed = c.seed * 2654435761ULL + 17;
  plan.drop_probability = 0.12;
  plan.spike_probability = 0.05;
  if (c.sites > 2)
    plan.crashes.push_back(
        {static_cast<net::SiteId>(c.sites - 1), 0.0, 200.0});
  return plan;
}

/// A lossless plan that only reorders: latency spikes, no drops, no crash.
sim::FaultPlan spike_faults(const FuzzCase& c) {
  sim::FaultPlan plan;
  plan.seed = c.seed * 2654435761ULL + 29;
  plan.spike_probability = 0.3;
  plan.spike_factor = 4.0;
  return plan;
}

/// Runs the whole pipeline for one case; returns the violation list (empty
/// = clean). Audit hooks inside the libraries throw AuditFailure when armed;
/// those are folded into the list too.
audit::Violations run_case(const FuzzCase& c) {
  audit::Violations out;
  try {
    online::register_online_solver();  // idempotent; the stage needs "online"
    util::Rng rng(c.seed);

    // --- generate -------------------------------------------------------
    workload::GeneratorConfig gen;
    gen.sites = c.sites;
    gen.objects = c.objects;
    gen.update_ratio_percent = rng.uniform_real(2.0, 30.0);
    gen.capacity_percent = rng.uniform_real(12.0, 45.0);
    util::Rng gen_rng = rng.fork(1);
    core::Problem problem = workload::generate(gen, gen_rng);

    // --- SRA (through the Solver registry) ------------------------------
    // options.rng keeps the forked stream, so the registry path draws the
    // exact numbers a direct solve_sra call would.
    util::Rng sra_rng = rng.fork(2);
    algo::SolverOptions sra_opt;
    sra_opt.rng = &sra_rng;
    const algo::AlgorithmResult sra = std::move(
        algo::solver_registry().at("sra").solve({problem, sra_opt}).result);
    note(out, "sra", audit::check_scheme(sra.scheme));
    note(out, "sra", audit::check_sra_terminal(sra.scheme));

    // --- GRA + V_k cache churn -------------------------------------------
    algo::GraConfig gra_cfg;
    gra_cfg.population = 8;
    gra_cfg.generations = 6;
    util::Rng gra_rng = rng.fork(3);
    algo::SolverOptions gra_opt;
    gra_opt.gra = gra_cfg;
    gra_opt.rng = &gra_rng;
    const algo::SolveResponse gra =
        algo::solver_registry().at("gra").solve({problem, gra_opt});
    note(out, "gra", audit::check_scheme(gra.result.scheme));

    core::CostEvaluator evaluator(problem);
    ga::Chromosome genes = gra.result.scheme.matrix();
    std::vector<double> v(problem.objects(), 0.0);
    (void)evaluator.full_cost(genes, v);
    note(out, "gra/v_cache", audit::check_object_cost_cache(problem, genes, v));

    // Long random add/remove churn: the incremental scheme state and the
    // winner's V_k cache, re-derived one changed column at a time, must
    // track through it without drifting.
    core::ReplicationScheme churn(problem, genes);
    util::Rng churn_rng = rng.fork(4);
    for (int step = 0; step < 300; ++step) {
      const auto i = static_cast<core::SiteId>(churn_rng.index(c.sites));
      const auto k = static_cast<core::ObjectId>(churn_rng.index(c.objects));
      if (problem.primary(k) == i) continue;
      if (churn.has_replica(i, k)) {
        churn.remove(i, k);
      } else {
        churn.add(i, k);
      }
      std::uint8_t& bit = genes[static_cast<std::size_t>(i) * c.objects + k];
      bit = bit != 0 ? 0 : 1;
      const core::ObjectId changed[] = {k};
      (void)evaluator.delta_cost(genes, changed, v);
    }
    note(out, "churn", audit::check_scheme(churn));
    note(out, "churn", audit::check_object_cost_cache(problem, genes, v));

    // --- partial rows: streamed instance, SRA trajectory, churn ----------
    // One kernel, two row shapes: the partial rows of the streamed instance
    // and its full-row copy must give the same SRA decisions/stats/cost and
    // the same top-2/used state through an identical add/remove history.
    workload::StreamConfig stream_cfg;
    stream_cfg.sites = c.sites;
    stream_cfg.objects = c.objects;
    stream_cfg.seed = c.seed ^ 0x5eed5eedULL;
    const core::Problem sparse_inst = workload::build_sparse_instance(stream_cfg);
    const core::Problem dense_problem = sparse_inst.materialize();

    util::Rng sparse_sra_rng = rng.fork(13);
    util::Rng dense_sra_rng = sparse_sra_rng;  // identical streams
    algo::SraConfig sparse_cfg;
    sparse_cfg.site_order = c.seed % 2 == 0
                                ? algo::SraConfig::SiteOrder::kRoundRobin
                                : algo::SraConfig::SiteOrder::kRandom;
    algo::SraStats dense_stats, sparse_stats;
    const algo::AlgorithmResult dense_sra =
        algo::solve_sra(dense_problem, sparse_cfg, dense_sra_rng, &dense_stats);
    const algo::AlgorithmResult sparse_sra = algo::solve_sra(
        sparse_inst, sparse_cfg, sparse_sra_rng, &sparse_stats);
    note(out, "sparse/sra", audit::check_scheme(sparse_sra.scheme));
    note(out, "sparse/sra",
         testing::compare_row_shapes(sparse_sra.scheme, dense_sra.scheme));
    if (sparse_sra.cost != dense_sra.cost ||
        sparse_sra.savings_percent != dense_sra.savings_percent ||
        sparse_sra.extra_replicas != dense_sra.extra_replicas) {
      out.push_back({"sparse/sra: result.equivalence",
                     "partial-row SRA result differs from full rows (cost " +
                         std::to_string(sparse_sra.cost) + " vs " +
                         std::to_string(dense_sra.cost) + ")"});
    }
    if (sparse_stats.site_visits != dense_stats.site_visits ||
        sparse_stats.replicas_created != dense_stats.replicas_created ||
        sparse_stats.benefit_evaluations != dense_stats.benefit_evaluations) {
      out.push_back({"sparse/sra: stats.equivalence",
                     "partial-row SRA stats differ from full rows"});
    }

    core::ReplicationScheme sparse_churn(sparse_inst);
    core::ReplicationScheme dense_churn(dense_problem);
    util::Rng sparse_churn_rng = rng.fork(14);
    for (int step = 0; step < 200; ++step) {
      const auto i = static_cast<core::SiteId>(sparse_churn_rng.index(c.sites));
      const auto k =
          static_cast<core::ObjectId>(sparse_churn_rng.index(c.objects));
      if (dense_problem.primary(k) == i) continue;
      if (dense_churn.has_replica(i, k)) {
        dense_churn.remove(i, k);
        sparse_churn.remove(i, k);
      } else {
        dense_churn.add(i, k);
        sparse_churn.add(i, k);
      }
    }
    note(out, "sparse/churn", audit::check_scheme(sparse_churn));
    note(out, "sparse/churn",
         testing::compare_row_shapes(sparse_churn, dense_churn));

    // --- epochs (drift + adaptation, all three policies) ----------------
    sim::EpochConfig epoch_cfg;
    epoch_cfg.epochs = c.epochs;
    epoch_cfg.monitor.gra = gra_cfg;
    epoch_cfg.monitor.agra.population = 6;
    epoch_cfg.monitor.agra.generations = 8;
    epoch_cfg.monitor.agra.mini_gra = gra_cfg;
    for (const auto policy :
         {sim::AdaptationPolicy::kStatic, sim::AdaptationPolicy::kAgraOnDrift,
          sim::AdaptationPolicy::kNightlyOnly}) {
      epoch_cfg.policy = policy;
      util::Rng epoch_rng = rng.fork(5 + static_cast<std::uint64_t>(policy));
      const sim::EpochReport report =
          sim::run_epochs(problem, epoch_cfg, epoch_rng);
      note(out, "epochs",
           audit::check_epoch_accounting(
               report.served_traffic, report.epoch_served,
               report.migration_traffic, report.epoch_migration));
    }

    // --- distributed SRA: perfect network must equal centralized --------
    sim::DistributedSraResult dsra = sim::run_distributed_sra(problem);
    note(out, "dsra", audit::check_scheme(dsra.scheme));
    note(out, "dsra", audit::check_message_conservation(
                          message_counts(dsra.traffic)));
    if (dsra.scheme.matrix() != sra.scheme.matrix()) {
      out.push_back({"dsra: protocol.equivalence",
                     "distributed SRA scheme differs from centralized SRA"});
    }

    // --- distributed SRA under faults: conservation must still hold -----
    sim::DistributedSraOptions dsra_opt;
    dsra_opt.faults = make_faults(c);
    sim::DistributedSraResult faulty_dsra =
        sim::run_distributed_sra(problem, dsra_opt);
    note(out, "dsra/faulty", audit::check_scheme(faulty_dsra.scheme));
    note(out, "dsra/faulty", audit::check_message_conservation(
                                 message_counts(faulty_dsra.traffic)));

    // --- trace replay: perfect traffic equals analytic D ----------------
    util::Rng trace_rng = rng.fork(9);
    const std::vector<workload::Request> trace =
        workload::build_trace(problem, trace_rng);
    const sim::ReplayResult replay = sim::replay_trace(sra.scheme, trace);
    note(out, "replay", audit::check_message_conservation(
                            message_counts(replay.traffic)));
    const double analytic = core::total_cost(sra.scheme);
    const double measured = replay.traffic.data_traffic;
    if (std::abs(measured - analytic) >
        1e-9 * std::max(1.0, std::abs(analytic))) {
      out.push_back({"replay: traffic.analytic",
                     "perfect-network replay traffic " +
                         std::to_string(measured) + " != analytic D " +
                         std::to_string(analytic)});
    }

    sim::ReplayOptions replay_opt;
    replay_opt.faults = make_faults(c);
    const sim::ReplayResult faulty_replay =
        sim::replay_trace(sra.scheme, trace, replay_opt);
    note(out, "replay/faulty", audit::check_message_conservation(
                                   message_counts(faulty_replay.traffic)));

    // --- trace replay at distinct event times ---------------------------
    // The replays above inject everything at t=0, so all their traffic
    // shares a few instants. A seed-derived fractional spacing puts nearly
    // every event on a timestamp of its own, the event queue's other regime.
    util::Rng spacing_rng = rng.fork(15);
    const double spacing = spacing_rng.uniform_real(0.001, 0.1);
    sim::ReplayOptions spaced_opt;
    spaced_opt.inter_arrival = spacing;
    const sim::ReplayResult spaced =
        sim::replay_trace(sra.scheme, trace, spaced_opt);
    note(out, "replay/spaced", audit::check_message_conservation(
                                   message_counts(spaced.traffic)));
    if (std::abs(spaced.traffic.data_traffic - analytic) >
        1e-9 * std::max(1.0, std::abs(analytic))) {
      out.push_back({"replay/spaced: traffic.analytic",
                     "replay traffic at inter_arrival " +
                         std::to_string(spacing) + " is " +
                         std::to_string(spaced.traffic.data_traffic) +
                         " != analytic D " + std::to_string(analytic)});
    }
    spaced_opt.faults = replay_opt.faults;
    const sim::ReplayResult faulty_spaced =
        sim::replay_trace(sra.scheme, trace, spaced_opt);
    note(out, "replay/spaced/faulty",
         audit::check_message_conservation(
             message_counts(faulty_spaced.traffic)));

    // --- monitor retune round on a perfect network ----------------------
    util::Rng monitor_rng = rng.fork(10);
    sim::MonitorConfig mon_cfg;
    mon_cfg.gra = gra_cfg;
    mon_cfg.agra.population = 6;
    mon_cfg.agra.generations = 8;
    sim::Monitor monitor(problem, mon_cfg, monitor_rng);
    core::Problem drifted = problem;
    workload::PatternChangeConfig drift;
    util::Rng drift_rng = rng.fork(11);
    (void)workload::apply_pattern_change(drifted, drift, drift_rng);
    const sim::RetuneReport retune = sim::run_retune_round(
        drifted, monitor, /*monitor_site=*/0, /*nightly=*/false, monitor_rng);
    note(out, "retune", audit::check_message_conservation(
                            message_counts(retune.traffic)));
    note(out, "retune",
         audit::check_perfect_retune(
             {.data_traffic = retune.traffic.data_traffic,
              .migration_traffic = retune.migration_traffic,
              .retries = retune.retry_stats.retries,
              .timeouts = retune.retry_stats.timeouts,
              .give_ups = retune.retry_stats.give_ups,
              .duplicates = retune.retry_stats.duplicates,
              .reports_missing = retune.reports_missing,
              .directives_failed = retune.directives_failed}));
    core::ReplicationScheme adopted(drifted, monitor.current_scheme());
    note(out, "retune", audit::check_scheme(adopted));

    // --- the same round under faults ------------------------------------
    // A second monitor from the same stream fork decides before any rollout
    // traffic, so it adopts the perfect round's scheme; faults only change
    // what the rollout costs. With every directive through, each gain's
    // fetch landed at least once, from its designated holder or the
    // (no closer) primary.
    util::Rng faulty_monitor_rng = rng.fork(10);
    sim::Monitor faulty_monitor(problem, mon_cfg, faulty_monitor_rng);
    sim::RetuneOptions faulty_retune_opt;
    faulty_retune_opt.faults = make_faults(c);
    const sim::RetuneReport faulty_retune = sim::run_retune_round(
        drifted, faulty_monitor, faulty_retune_opt, faulty_monitor_rng);
    note(out, "retune/faulty", audit::check_message_conservation(
                                   message_counts(faulty_retune.traffic)));
    note(out, "retune/faulty",
         audit::check_scheme(core::ReplicationScheme(
             drifted, faulty_monitor.current_scheme())));
    if (faulty_monitor.current_scheme() != monitor.current_scheme()) {
      out.push_back({"retune/faulty: adopted_scheme",
                     "the faulty round adopted a different scheme than the "
                     "perfect round"});
    }
    const double migration_slack =
        1e-9 * std::max(1.0, faulty_retune.migration_traffic);
    if (faulty_retune.directives_failed == 0 &&
        faulty_retune.traffic.data_traffic <
            faulty_retune.migration_traffic - migration_slack) {
      out.push_back({"retune/faulty: migration_traffic",
                     "data traffic " +
                         std::to_string(faulty_retune.traffic.data_traffic) +
                         " < migration traffic " +
                         std::to_string(faulty_retune.migration_traffic) +
                         " with no failed directive"});
    }

    // --- online engine: standalone == DES, perfect and faulty ------------
    // The policy decides at injection time, in trace order, so the final
    // scheme is a pure function of (initial scheme, trace, config): faults
    // may drop the shipped bytes, never the decision.
    workload::ModedTraceConfig moded;
    moded.mode = static_cast<workload::TraceMode>(c.seed % 4);
    moded.phases = 4;
    util::Rng online_trace_rng = rng.fork(12);
    const std::vector<workload::Request> online_trace =
        workload::build_moded_trace(problem, moded, online_trace_rng);

    algo::OnlineOptions online_opt;
    online_opt.window = 24 + 8 * (c.seed % 3);
    online_opt.trust = 0.25 * static_cast<double>(c.seed % 5);
    online_opt.source = c.seed % 2 == 0 ? algo::PredictionSource::kEwma
                                        : algo::PredictionSource::kOracle;
    const online::EngineConfig engine_cfg =
        online::engine_config_from(online_opt);

    core::ReplicationScheme standalone(problem);
    online::OnlineEngine engine(standalone, engine_cfg);
    engine.prime(online_trace);
    engine.run(online_trace);
    note(out, "online", audit::check_scheme(standalone));
    note(out, "online",
         audit::check_online_log(problem, engine.stats().initial_matrix,
                                 engine.stats().log, standalone));

    core::ReplicationScheme des_scheme(problem);
    online::OnlineEngine des_engine(des_scheme, engine_cfg);
    des_engine.prime(online_trace);
    const sim::ReplayOptions online_perfect;
    const sim::ReplayResult online_replay = sim::replay_trace_online(
        des_scheme, online_trace, online_perfect, des_engine);
    note(out, "online/des", audit::check_message_conservation(
                                message_counts(online_replay.traffic)));
    if (des_scheme.matrix() != standalone.matrix())
      out.push_back(
          {"online/des: engine.equivalence",
           "DES-replayed online scheme differs from standalone run"});
    if (online_replay.online_migrations != engine.stats().migrations ||
        online_replay.online_evictions != engine.stats().evictions)
      out.push_back(
          {"online/des: engine.counters",
           "DES migration/eviction counters differ from engine stats"});

    sim::ReplayOptions online_faulty_opt;
    online_faulty_opt.faults = make_faults(c);
    core::ReplicationScheme faulty_online(problem);
    online::OnlineEngine faulty_engine(faulty_online, engine_cfg);
    faulty_engine.prime(online_trace);
    const sim::ReplayResult faulty_online_replay = sim::replay_trace_online(
        faulty_online, online_trace, online_faulty_opt, faulty_engine);
    note(out, "online/faulty",
         audit::check_message_conservation(
             message_counts(faulty_online_replay.traffic)));
    note(out, "online/faulty",
         audit::check_online_log(problem, faulty_engine.stats().initial_matrix,
                                 faulty_engine.stats().log, faulty_online));
    if (faulty_online.matrix() != standalone.matrix())
      out.push_back(
          {"online/faulty: engine.equivalence",
           "faulty-network online scheme differs from standalone run"});

    // --- registry "online": same seed must solve bit-identically ---------
    algo::SolverOptions reg_opt;
    reg_opt.common.seed = c.seed;
    const algo::SolveResponse reg_a =
        algo::solver_registry().at("online").solve({problem, reg_opt});
    const algo::SolveResponse reg_b =
        algo::solver_registry().at("online").solve({problem, reg_opt});
    note(out, "online/solver", audit::check_scheme(reg_a.result.scheme));
    if (reg_a.result.scheme.matrix() != reg_b.result.scheme.matrix() ||
        reg_a.result.cost != reg_b.result.cost)
      out.push_back({"online/solver: determinism",
                     "two online solves with the same seed diverged"});

    // --- serve: frozen snapshots + cross-worker replay determinism -------
    // Freezing the SRA scheme must produce a coherent snapshot, and a
    // trace replay with a mid-trace retune must land on the same outcome
    // log (hash and serially-summed cost) at one and two workers.
    const serve::SchemeSnapshot frozen =
        serve::SchemeSnapshot::freeze(sra.scheme, /*generation=*/1);
    note(out, "serve", audit::check_snapshot_coherence(frozen, sra.scheme));

    serve::ServeConfig serve_cfg;
    serve_cfg.seed = c.seed;
    serve_cfg.batch = 64;
    serve_cfg.audit = true;
    serve_cfg.retune_every = std::max<std::size_t>(1, trace.size() / 2);
    serve_cfg.workers = 1;
    const serve::ServeReport serve_solo =
        serve::serve_trace(problem, trace, serve_cfg);
    serve_cfg.workers = 2;
    const serve::ServeReport serve_pair =
        serve::serve_trace(problem, trace, serve_cfg);
    if (serve_solo.outcome_hash != serve_pair.outcome_hash ||
        serve_solo.served_cost != serve_pair.served_cost) {
      std::ostringstream detail;
      detail << "workers=1 hash " << std::hex << serve_solo.outcome_hash
             << " cost " << serve_solo.served_cost << " != workers=2 hash "
             << serve_pair.outcome_hash << " cost " << serve_pair.served_cost;
      out.push_back({"serve: determinism", detail.str()});
    }
    if (serve_solo.retired_pending != 0 || serve_pair.retired_pending != 0)
      out.push_back({"serve: reclamation",
                     "retired snapshots still pending after serve_trace"});
  } catch (const audit::AuditFailure& failure) {
    note(out, "hook", failure.violations());
  } catch (const std::exception& e) {
    out.push_back({"pipeline.exception", e.what()});
  }
  return out;
}

/// Greedy shrink: repeatedly try the smaller variants and keep any that
/// still fails. Bounded by the monotone decrease of sites/objects/epochs.
FuzzCase shrink(FuzzCase c) {
  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<FuzzCase> candidates;
    if (c.sites / 2 >= kMinSites) {
      FuzzCase cand = c;
      cand.sites /= 2;
      candidates.push_back(cand);
    }
    if (c.objects / 2 >= kMinObjects) {
      FuzzCase cand = c;
      cand.objects /= 2;
      candidates.push_back(cand);
    }
    if (c.epochs > 1) {
      FuzzCase cand = c;
      cand.epochs = 1;
      candidates.push_back(cand);
    }
    for (const FuzzCase& cand : candidates) {
      if (!run_case(cand).empty()) {
        c = cand;
        improved = true;
        break;
      }
    }
  }
  return c;
}

/// One decentralized case: dgra vs the centralized gra (perfect network =
/// bit-equality, seeded faults = pinned degradation ceiling), the envelope
/// sequencing logs, and a decentralized adaptive round against a drifted
/// copy of the problem. See DESIGN.md Section 15.
audit::Violations run_decentralized_case(const FuzzCase& c) {
  audit::Violations out;
  try {
    dist::register_dist_solvers();  // idempotent
    util::Rng rng(c.seed);

    workload::GeneratorConfig gen;
    gen.sites = c.sites;
    gen.objects = c.objects;
    gen.update_ratio_percent = rng.uniform_real(2.0, 30.0);
    gen.capacity_percent = rng.uniform_real(12.0, 45.0);
    util::Rng gen_rng = rng.fork(1);
    const core::Problem problem = workload::generate(gen, gen_rng);

    dist::DgraOptions options;
    options.gra.population = 12;
    options.gra.generations = 12;
    options.gra.islands = std::min<std::size_t>(4, c.sites);
    options.gra.migration_interval = 4;
    options.gra.migration_count = 1;

    // --- perfect network: bit-for-bit the centralized island driver -----
    util::Rng dist_rng = rng.fork(2);
    util::Rng central_rng = dist_rng;  // identical streams
    const dist::DgraResult perfect =
        dist::run_decentralized_gra(problem, options, dist_rng);
    const algo::GraResult central =
        algo::solve_gra(problem, options.gra, central_rng);
    audit::DistConvergenceCounts counts;
    counts.perfect_network = true;
    counts.decentralized_cost = perfect.merged.best.cost;
    counts.centralized_cost = central.best.cost;
    counts.decentralized_scheme_hash =
        dist::chromosome_hash(perfect.merged.best.scheme.matrix());
    counts.centralized_scheme_hash =
        dist::chromosome_hash(central.best.scheme.matrix());
    counts.decentralized_evaluations = perfect.merged.evaluations;
    counts.centralized_evaluations = central.evaluations;
    note(out, "dgra/perfect", audit::check_dist_convergence(counts));
    note(out, "dgra/perfect", audit::check_envelope_log(perfect.envelope_log));
    note(out, "dgra/perfect", audit::check_scheme(perfect.merged.best.scheme));
    if (dist_rng.next() != central_rng.next())
      out.push_back({"dgra/perfect: rng_advance",
                     "caller streams diverged after the runs"});

    // --- seeded faults: graceful degradation within the ceiling ---------
    options.faults = make_faults(c);
    util::Rng faulty_rng = rng.fork(2);  // same stream as the perfect run
    const dist::DgraResult faulty =
        dist::run_decentralized_gra(problem, options, faulty_rng);
    counts.perfect_network = false;
    counts.decentralized_cost = faulty.merged.best.cost;
    counts.decentralized_scheme_hash =
        dist::chromosome_hash(faulty.merged.best.scheme.matrix());
    counts.decentralized_evaluations = faulty.merged.evaluations;
    note(out, "dgra/faulty", audit::check_dist_convergence(counts));
    note(out, "dgra/faulty", audit::check_envelope_log(faulty.envelope_log));
    note(out, "dgra/faulty", audit::check_scheme(faulty.merged.best.scheme));

    // --- spike-only plan: messages overtake each other, none is lost ----
    options.faults = spike_faults(c);
    util::Rng spiked_rng = rng.fork(2);
    const dist::DgraResult spiked =
        dist::run_decentralized_gra(problem, options, spiked_rng);
    note(out, "dgra/spiked", audit::check_envelope_log(spiked.envelope_log));
    if (spiked.migrations_missed != 0)
      out.push_back({"dgra/spiked: migrations_missed",
                     std::to_string(spiked.migrations_missed) +
                         " migration(s) missed on a lossless network"});

    // --- decentralized adaptive round over 1-3 drifted sites ------------
    core::Problem drifted = problem;
    util::Rng drift_rng = rng.fork(3);
    std::vector<core::SiteId> hot_sites(c.sites);
    for (core::SiteId i = 0; i < c.sites; ++i) hot_sites[i] = i;
    drift_rng.shuffle(hot_sites);
    hot_sites.resize(1 + drift_rng.index(std::min<std::size_t>(3, c.sites)));
    for (const core::SiteId hot : hot_sites) {
      for (core::ObjectId k = 0; k < std::min<std::size_t>(3, c.objects); ++k)
        drifted.set_reads(hot, k, 10.0 * problem.reads(hot, k) + 50.0);
    }

    dist::DadaptOptions adapt;
    adapt.agra.population = 6;
    adapt.agra.generations = 4;
    adapt.current_scheme = central.best.scheme.matrix();
    adapt.drift_threshold_percent = 150.0;
    adapt.change_threshold_percent = 50.0;
    adapt.seed = c.seed;
    adapt.trace_seed = c.seed ^ 0xADA57ULL;
    const dist::DadaptResult round =
        dist::run_decentralized_adapt(problem, drifted, adapt);
    note(out, "dagra/perfect", audit::check_scheme(round.result.scheme));
    for (const auto& log : round.envelope_logs)
      note(out, "dagra/perfect", audit::check_envelope_log(log));

    dist::DadaptOptions faulty_adapt = adapt;
    faulty_adapt.faults = make_faults(c);
    const dist::DadaptResult faulty_round =
        dist::run_decentralized_adapt(problem, drifted, faulty_adapt);
    note(out, "dagra/faulty", audit::check_scheme(faulty_round.result.scheme));
    for (const auto& log : faulty_round.envelope_logs)
      note(out, "dagra/faulty", audit::check_envelope_log(log));

    dist::DadaptOptions spiked_adapt = adapt;
    spiked_adapt.faults = spike_faults(c);
    const dist::DadaptResult spiked_round =
        dist::run_decentralized_adapt(problem, drifted, spiked_adapt);
    note(out, "dagra/spiked", audit::check_scheme(spiked_round.result.scheme));
    for (const auto& log : spiked_round.envelope_logs)
      note(out, "dagra/spiked", audit::check_envelope_log(log));
    if (spiked_round.directives_failed != 0)
      out.push_back({"dagra/spiked: directives_failed",
                     std::to_string(spiked_round.directives_failed) +
                         " directive(s) failed on a lossless network"});
  } catch (const audit::AuditFailure& failure) {
    note(out, "hook", failure.violations());
  } catch (const std::exception& e) {
    out.push_back({"decentralized.exception", e.what()});
  }
  return out;
}

/// --decentralized: one conformance case per seed; no shrinking (a repro
/// is the seed plus the printed shape).
int run_decentralized_mode(const std::vector<std::uint64_t>& seed_list,
                           const FuzzCase& pinned) {
  std::size_t failures = 0;
  for (const std::uint64_t seed : seed_list) {
    FuzzCase c = pinned;
    c.seed = seed;
    c = resolve(c);
    const audit::Violations violations = run_decentralized_case(c);
    if (violations.empty()) {
      std::printf("seed %llu ok (%zu sites, %zu objects)\n",
                  static_cast<unsigned long long>(seed), c.sites, c.objects);
      continue;
    }
    ++failures;
    std::printf("seed %llu FAILED (%zu violation(s))\n",
                static_cast<unsigned long long>(seed), violations.size());
    for (const audit::Violation& v : violations)
      std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
    std::printf(
        "  repro: tools/fuzz_pipeline --decentralized --seed=%llu"
        " --sites=%zu --objects=%zu\n",
        static_cast<unsigned long long>(seed), c.sites, c.objects);
  }
  if (failures != 0) {
    std::printf("fuzz_pipeline: %zu/%zu decentralized case(s) failed\n",
                failures, seed_list.size());
    return 1;
  }
  std::printf("fuzz_pipeline: all %zu decentralized case(s) clean\n",
              seed_list.size());
  return 0;
}

bool parse_u64(std::string_view text, std::uint64_t& value) {
  if (text.empty()) return false;
  std::uint64_t parsed = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
    parsed = parsed * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  value = parsed;
  return true;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds=N] [--seed=S] [--sites=M] [--objects=N]\n"
      "          [--epochs=E] [--no-shrink] [--topology=tree]\n"
      "  --seeds=N     sweep seeds 1..N (default 20); ignored with --seed\n"
      "  --seed=S      run the single case S (a repro line re-runs exactly)\n"
      "  --sites/--objects/--epochs   pin a dimension (default: from seed)\n"
      "  --no-shrink   print the original failing case, skip minimization\n"
      "  --topology=tree   oracle differential mode: sweep every solver\n"
      "                against the exact tree-DP optimum per seed\n"
      "  --decentralized   dist conformance mode: dgra vs centralized gra\n"
      "                (perfect = bit-equal, faulty = within the ceiling)\n"
      "                plus a decentralized adaptive round per seed\n",
      argv0);
}

/// --topology=tree: one oracle differential case per seed; no shrinking
/// (the cases are already small and a repro is just the seed).
int run_tree_mode(const std::vector<std::uint64_t>& seed_list) {
  std::size_t failures = 0;
  for (const std::uint64_t seed : seed_list) {
    const drep::testing::OracleCaseReport report =
        drep::testing::run_oracle_case(
            drep::testing::oracle_case_from_seed(seed));
    if (report.ok()) {
      std::printf(
          "seed %llu ok (%zu sites, %zu objects, optimum %.0f,"
          " %zu solvers%s%s)\n",
          static_cast<unsigned long long>(seed), report.config.tree.sites,
          report.config.tree.objects, report.optimum, report.gaps.size(),
          report.exhaustive_checked ? ", exhaustive bit-exact" : "",
          report.constclients_checked ? ", constclients agreed" : "");
      continue;
    }
    ++failures;
    std::printf("seed %llu FAILED (%zu violation(s))\n",
                static_cast<unsigned long long>(seed),
                report.failures.size());
    for (const auto& failure : report.failures)
      std::printf("  [%s] %s\n", failure.check.c_str(),
                  failure.detail.c_str());
    std::printf("  repro: tools/fuzz_pipeline --topology=tree --seed=%llu\n",
                static_cast<unsigned long long>(seed));
  }
  if (failures != 0) {
    std::printf("fuzz_pipeline: %zu/%zu tree case(s) failed\n", failures,
                seed_list.size());
    return 1;
  }
  std::printf("fuzz_pipeline: all %zu tree case(s) clean\n",
              seed_list.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 20;
  std::optional<std::uint64_t> single_seed;
  FuzzCase pinned;
  bool do_shrink = true;
  bool tree_mode = false;
  bool decentralized_mode = false;

  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    const auto eat = [&](std::string_view prefix, std::uint64_t& value) {
      return arg.substr(0, prefix.size()) == prefix &&
             parse_u64(arg.substr(prefix.size()), value);
    };
    std::uint64_t value = 0;
    if (eat("--seeds=", value)) {
      seeds = value;
    } else if (eat("--seed=", value)) {
      single_seed = value;
    } else if (eat("--sites=", value)) {
      pinned.sites = value;
    } else if (eat("--objects=", value)) {
      pinned.objects = value;
    } else if (eat("--epochs=", value)) {
      pinned.epochs = value;
    } else if (arg == "--no-shrink") {
      do_shrink = false;
    } else if (arg == "--topology=tree") {
      tree_mode = true;
    } else if (arg == "--decentralized") {
      decentralized_mode = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (pinned.sites != 0 && pinned.sites < kMinSites) {
    std::fprintf(stderr, "fuzz_pipeline: --sites must be >= %zu\n", kMinSites);
    return 2;
  }
  if (pinned.objects != 0 && pinned.objects < kMinObjects) {
    std::fprintf(stderr, "fuzz_pipeline: --objects must be >= %zu\n",
                 kMinObjects);
    return 2;
  }

  std::vector<std::uint64_t> seed_list;
  if (single_seed) {
    seed_list.push_back(*single_seed);
  } else {
    for (std::uint64_t s = 1; s <= seeds; ++s) seed_list.push_back(s);
  }

  if (tree_mode) {
    if (pinned.sites != 0 || pinned.objects != 0 || pinned.epochs != 0) {
      std::fprintf(stderr,
                   "fuzz_pipeline: --topology=tree derives its shapes from "
                   "the seed; --sites/--objects/--epochs do not apply\n");
      return 2;
    }
    return run_tree_mode(seed_list);
  }
  if (decentralized_mode) return run_decentralized_mode(seed_list, pinned);

  std::size_t failures = 0;
  for (const std::uint64_t seed : seed_list) {
    FuzzCase c = pinned;
    c.seed = seed;
    c = resolve(c);
    const audit::Violations violations = run_case(c);
    if (violations.empty()) {
      std::printf("seed %llu ok (%zu sites, %zu objects, %zu epochs)\n",
                  static_cast<unsigned long long>(seed), c.sites, c.objects,
                  c.epochs);
      continue;
    }
    ++failures;
    FuzzCase minimal = do_shrink ? shrink(c) : c;
    const audit::Violations final_violations =
        do_shrink ? run_case(minimal) : violations;
    std::printf("seed %llu FAILED (%zu violation(s))\n",
                static_cast<unsigned long long>(seed),
                final_violations.size());
    for (const audit::Violation& v : final_violations)
      std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
    std::printf("  repro: %s\n", repro_line(minimal).c_str());
  }

  if (failures != 0) {
    std::printf("fuzz_pipeline: %zu/%zu case(s) failed\n", failures,
                seed_list.size());
    return 1;
  }
  std::printf("fuzz_pipeline: all %zu case(s) clean\n", seed_list.size());
  return 0;
}
