#include "cli/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/common.hpp"
#include "algo/solver.hpp"
#include "core/availability.hpp"
#include "core/cost_model.hpp"
#include "dist/dagra.hpp"
#include "dist/solver.hpp"
#include "io/serialize.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "online/engine.hpp"
#include "online/referee.hpp"
#include "online/solver.hpp"
#include "serve/engine.hpp"
#include "sim/access_replay.hpp"
#include "sim/fault_plan.hpp"
#include "sim/monitor.hpp"
#include "workload/trace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/trace_modes.hpp"
#include "workload/tree_instance.hpp"

namespace drep::cli {

namespace {

struct Args {
  std::map<std::string, std::string> named;

  [[nodiscard]] bool has(const std::string& key) const {
    return named.count(key) != 0;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = named.find(key);
    if (it == named.end())
      throw UsageError("missing required flag " + flag_name(key));
    return it->second;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = named.find(key);
    if (it == named.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
      throw UsageError(flag_name(key) + " expects a number, got '" + text +
                       "'");
    return value;
  }
  /// An integer flag: decimal digits only (no sign, fraction or exponent),
  /// within T's range.
  template <typename T>
  [[nodiscard]] T integer(const std::string& key, T fallback) const {
    const auto it = named.find(key);
    if (it == named.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (text.empty() || error != std::errc{} || end != last)
      throw UsageError(flag_name(key) + " expects an integer in [0, " +
                       std::to_string(std::numeric_limits<T>::max()) +
                       "], got '" + text + "'");
    return value;
  }

  /// Canonical spelling for error messages: the short form where one
  /// exists, --key otherwise.
  [[nodiscard]] static std::string flag_name(const std::string& key) {
    if (key == "in") return "-i";
    if (key == "out") return "-o";
    if (key == "scheme") return "-s";
    if (key == "new") return "-n";
    return "--" + key;
  }
};

Args parse_args(int argc, char** argv, int first,
                const std::set<std::string>& allowed) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string key;
    if (arg == "-o" || arg == "-i" || arg == "-s" || arg == "-n") {
      if (i + 1 >= argc) throw UsageError(arg + " needs a file argument");
      key = arg == "-o"   ? "out"
            : arg == "-i" ? "in"
            : arg == "-s" ? "scheme"
                          : "new";
      args.named[key] = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        key = arg.substr(2);
        args.named[key] = "1";
      } else {
        key = arg.substr(2, eq - 2);
        args.named[key] = arg.substr(eq + 1);
      }
    } else {
      throw UsageError("unexpected argument: " + arg);
    }
    if (allowed.count(key) == 0)
      throw UsageError("unknown flag " + Args::flag_name(key) +
                       " for this command");
  }
  return args;
}

/// The parsed flags as a sorted string->string object (std::map order), so
/// two invocations with the same flags serialize identically.
obs::Json args_to_json(const Args& args) {
  obs::Json config = obs::Json::object();
  for (const auto& [key, value] : args.named) config[key] = obs::Json(value);
  return config;
}

/// Writes the --report (RunReport JSON) and/or --prom (Prometheus text
/// exposition) files when requested. Capture happens here, after the
/// command's spans have closed, so the report sees the whole run.
void maybe_write_reports(const Args& args, const std::string& command,
                         obs::Json result) {
  const bool want_report = args.has("report");
  const bool want_prom = args.has("prom");
  if (!want_report && !want_prom) return;
  const obs::RunReport report =
      obs::RunReport::capture(command, args_to_json(args), std::move(result));
  if (want_report) report.save(args.require("report"));
  if (want_prom) {
    const std::string path = args.require("prom");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot create " + path);
    out << obs::to_prometheus(report.metrics);
    if (!out) throw std::runtime_error("failed writing " + path);
  }
}

/// Parses --faults=SPEC into a validated FaultPlan; malformed specs are
/// usage errors (exit 2), not runtime failures.
sim::FaultPlan parse_fault_plan(const Args& args) {
  try {
    sim::FaultPlan plan = sim::FaultPlan::parse(args.require("faults"));
    plan.validate();
    return plan;
  } catch (const std::invalid_argument& error) {
    throw UsageError(std::string("--faults: ") + error.what());
  }
}

/// Tree-topology generation (--topology=tree): the oracle workloads of
/// workload/tree_instance.hpp. Defaults to ample capacity (0) so that
/// --algo=treedp is exact on the result.
core::Problem generate_tree_problem(const Args& args, util::Rng& rng) {
  workload::TreeInstanceConfig config;
  config.sites = args.integer<std::size_t>("sites", 50);
  config.objects = args.integer<std::size_t>("objects", 200);
  config.update_ratio_percent = args.number("update", 5.0);
  config.capacity_percent = args.number("capacity", 0.0);
  const std::string shape = args.get("shape", "random");
  if (shape == "random") {
    config.shape = workload::TreeInstanceConfig::Shape::kRandom;
  } else if (shape == "chain") {
    config.shape = workload::TreeInstanceConfig::Shape::kChain;
  } else if (shape == "star") {
    config.shape = workload::TreeInstanceConfig::Shape::kStar;
  } else {
    throw UsageError("--shape expects random|chain|star, got '" + shape + "'");
  }
  config.fanout = args.integer<std::size_t>("fanout", 3);
  config.depth_skew = args.number("skew", 0.0);
  config.clients_per_object = args.integer<std::size_t>("clients", 0);
  try {
    config.validate();
  } catch (const std::invalid_argument& error) {
    throw UsageError(error.what());
  }
  return workload::generate_tree(config, rng);
}

int cmd_generate(const Args& args) {
  const std::string topology = args.get("topology", "complete");
  util::Rng rng(args.integer<std::uint64_t>("seed", 1));
  core::Problem problem = [&]() -> core::Problem {
    if (topology == "tree") return generate_tree_problem(args, rng);
    if (topology != "complete")
      throw UsageError("--topology expects complete|tree, got '" + topology +
                       "'");
    for (const char* tree_only : {"shape", "fanout", "skew", "clients"}) {
      if (args.has(tree_only))
        throw UsageError("--" + std::string(tree_only) +
                         " requires --topology=tree");
    }
    workload::GeneratorConfig config;
    config.sites = args.integer<std::size_t>("sites", 50);
    config.objects = args.integer<std::size_t>("objects", 200);
    config.update_ratio_percent = args.number("update", 5.0);
    config.capacity_percent = args.number("capacity", 15.0);
    return workload::generate(config, rng);
  }();
  io::save_problem(args.require("out"), problem);
  std::cout << "wrote " << args.require("out") << ": " << problem.sites()
            << " sites, " << problem.objects() << " objects, D' = "
            << core::primary_only_cost(problem) << "\n";
  return 0;
}

/// The online engine's knobs, shared by `solve --algo=online` and
/// `replay --online`.
algo::OnlineOptions online_options_from(const Args& args) {
  algo::OnlineOptions options;
  options.window = args.integer<std::size_t>("window", 128);
  if (options.window == 0) throw UsageError("--window must be >= 1");
  options.trust = args.number("trust", 0.5);
  if (options.trust < 0.0 || options.trust > 1.0)
    throw UsageError("--trust must be in [0, 1]");
  const std::string source = args.get("predictions", "ewma");
  if (source == "ewma") {
    options.source = algo::PredictionSource::kEwma;
  } else if (source == "oracle") {
    options.source = algo::PredictionSource::kOracle;
  } else if (source == "adversarial") {
    options.source = algo::PredictionSource::kAdversarial;
  } else {
    throw UsageError("--predictions expects ewma|oracle|adversarial, got '" +
                     source + "'");
  }
  return options;
}

/// Builds SolverOptions from the shared solve/adapt flags. --threads also
/// resizes the shared pool so the flag takes effect immediately.
algo::SolverOptions solver_options_from(const Args& args) {
  algo::SolverOptions options;
  options.common.seed = args.integer<std::uint64_t>("seed", 1);
  options.common.threads = args.integer<std::size_t>("threads", 0);
  if (args.has("threads"))
    util::ThreadPool::configure_shared(options.common.threads);
  options.gra.generations = args.integer<std::size_t>("generations", 80);
  options.gra.population = args.integer<std::size_t>("population", 50);
  options.gra.islands = args.integer<std::size_t>("islands", 1);
  options.agra.mini_gra_generations = args.integer<std::size_t>("mini", 5);
  options.agra.common.threads = options.common.threads;
  options.online = online_options_from(args);
  return options;
}

/// "sra|gra|…" — the registered names for usage messages.
std::string solver_names_joined() {
  std::string joined;
  for (const std::string_view name : algo::solver_registry().names()) {
    if (!joined.empty()) joined += "|";
    joined += name;
  }
  return joined;
}

/// --avail-target=P turns the per-object availability floor on; the site
/// availabilities come from the --faults crash windows, so the flag requires
/// a --faults spec. Malformed targets are usage errors.
std::optional<core::AvailabilityConstraint> availability_from(
    const Args& args, const core::Problem& problem) {
  if (!args.has("avail-target")) {
    if (args.has("faults"))
      throw UsageError("solve --faults requires --avail-target=P");
    return std::nullopt;
  }
  core::AvailabilityConstraint constraint;
  constraint.target = args.number("avail-target", 0.0);
  if (!args.has("faults"))
    throw UsageError(
        "--avail-target requires --faults=SPEC to derive site availability");
  constraint.site_availability =
      parse_fault_plan(args).site_availability(problem.sites());
  try {
    constraint.validate(problem.sites());
  } catch (const std::invalid_argument& error) {
    throw UsageError(std::string("--avail-target: ") + error.what());
  }
  return constraint;
}

int cmd_solve(const Args& args) {
  const core::Problem problem = io::load_problem(args.require("in"));
  const std::string algo_name = args.get("algo", "gra");
  const algo::Solver* solver = algo::solver_registry().find(algo_name);
  if (solver == nullptr)
    throw UsageError("unknown --algo=" + algo_name + " (" +
                     solver_names_joined() + ")");

  algo::SolverOptions options = solver_options_from(args);
  if (algo_name == "dgra") {
    // For the decentralized solver --faults feeds the DES fault plan the
    // run itself executes under, not the static availability analysis, so
    // the avail-target pairing rule does not apply; --avail-target may
    // still ride along for the repair post-pass.
    if (args.has("faults")) {
      (void)parse_fault_plan(args);  // malformed specs are usage errors
      options.dist.faults_spec = args.get("faults", "");
    }
    options.dist.latency_per_cost = args.number("latency", 1.0);
    options.dist.cost_ceiling_factor = args.number("ceiling", 1.10);
    if (args.has("avail-target"))
      options.availability = availability_from(args, problem);
  } else {
    options.availability = availability_from(args, problem);
  }
  options.common.audit = args.has("audit");

  obs::Json result_json = obs::Json::object();
  result_json["algo"] = obs::Json(algo_name);
  std::optional<algo::SolveResponse> response;
  {
    DREP_SPAN("cli/solve");
    response = solver->solve({problem, std::move(options)});
  }

  const algo::AlgorithmResult& result = response->result;
  if (args.has("out")) io::save_scheme(args.require("out"), result.scheme);
  result_json["cost"] = obs::Json(result.cost);
  result_json["savings_percent"] = obs::Json(result.savings_percent);
  result_json["extra_replicas"] = obs::Json(result.extra_replicas);
  result_json["elapsed_seconds"] = obs::Json(result.elapsed_seconds);
  result_json["iterations"] = obs::Json(result.iterations);
  for (auto& [key, value] : response->details.as_object())
    result_json[key] = std::move(value);
  std::cout << algo_name << ": cost " << result.cost << ", savings "
            << util::format_double(result.savings_percent, 2) << "%, +"
            << result.extra_replicas << " replicas, "
            << util::format_double(result.elapsed_seconds, 4) << "s\n";
  maybe_write_reports(args, "solve", std::move(result_json));
  return 0;
}

int cmd_evaluate(const Args& args) {
  const core::Problem problem = io::load_problem(args.require("in"));
  const core::ReplicationScheme scheme =
      args.has("scheme") ? io::load_scheme(args.require("scheme"), problem)
                         : core::ReplicationScheme(problem);
  core::CostBreakdown parts;
  {
    DREP_SPAN("cli/evaluate");
    parts = core::cost_breakdown(scheme);
  }
  const double primary_only = core::primary_only_cost(problem);
  const double savings = 100.0 * core::savings_fraction(problem, parts.total());
  util::Table table({"metric", "value"});
  table.row(3).cell("read NTC").cell(parts.read_cost);
  table.row(3).cell("write NTC").cell(parts.write_cost);
  table.row(3).cell("total D").cell(parts.total());
  table.row(3).cell("D' (primary only)").cell(primary_only);
  table.row(2).cell("savings %").cell(savings);
  table.row(0).cell("replicas beyond primaries").cell(scheme.extra_replicas());
  table.row(0).cell("scheme valid").cell(scheme.is_valid() ? "yes" : "NO");
  table.print(std::cout);

  obs::Json result_json = obs::Json::object();
  result_json["read_cost"] = obs::Json(parts.read_cost);
  result_json["write_cost"] = obs::Json(parts.write_cost);
  result_json["total_cost"] = obs::Json(parts.total());
  result_json["primary_only_cost"] = obs::Json(primary_only);
  result_json["savings_percent"] = obs::Json(savings);
  result_json["extra_replicas"] = obs::Json(scheme.extra_replicas());
  result_json["valid"] = obs::Json(scheme.is_valid());
  maybe_write_reports(args, "evaluate", std::move(result_json));
  return 0;
}

int cmd_replay(const Args& args) {
  const core::Problem problem = io::load_problem(args.require("in"));
  core::ReplicationScheme scheme =
      args.has("scheme") ? io::load_scheme(args.require("scheme"), problem)
                         : core::ReplicationScheme(problem);
  util::Rng rng(args.integer<std::uint64_t>("seed", 1));

  workload::ModedTraceConfig trace_config;
  try {
    trace_config.mode = workload::parse_trace_mode(args.get("trace", "uniform"));
    trace_config.phases = args.integer<std::size_t>("phases", 8);
    trace_config.validate();
  } catch (const std::invalid_argument& error) {
    throw UsageError(std::string("--trace: ") + error.what());
  }
  const auto trace = workload::build_moded_trace(problem, trace_config, rng);

  sim::ReplayOptions options;
  if (args.has("faults")) options.faults = parse_fault_plan(args);
  const bool run_online = args.has("online");
  sim::ReplayResult replay;
  std::optional<online::EngineStats> engine_stats;
  std::optional<online::RefereeReport> hindsight;
  double competitive_ratio = 1.0;
  if (run_online) {
    const algo::OnlineOptions online_options = online_options_from(args);
    online::OnlineEngine engine(scheme,
                                online::engine_config_from(online_options));
    engine.prime(trace);
    {
      DREP_SPAN("cli/replay");
      replay = sim::replay_trace_online(scheme, trace, options, engine);
    }
    engine_stats = engine.stats();
    online::RefereeConfig referee;
    referee.window = online_options.window;
    hindsight = online::hindsight_cost(problem, trace, referee);
    competitive_ratio = hindsight->total_cost() > 0.0
                            ? engine_stats->total_cost() / hindsight->total_cost()
                            : 1.0;
  } else {
    DREP_SPAN("cli/replay");
    replay = sim::replay_trace(scheme, trace, options);
  }
  util::Table table({"metric", "value"});
  table.row(3).cell("replayed data traffic").cell(replay.traffic.data_traffic);
  table.row(3).cell("analytic D").cell(core::total_cost(scheme));
  table.row(0).cell("requests").cell(trace.size());
  table.row(0).cell("local reads").cell(replay.local_reads);
  table.row(0).cell("remote reads").cell(replay.remote_reads);
  table.row(0).cell("data messages").cell(replay.traffic.data_messages);
  table.row(0).cell("control messages").cell(replay.traffic.control_messages);
  table.row(3).cell("mean read latency").cell(replay.read_latency.mean());
  table.row(3).cell("mean write latency").cell(replay.write_latency.mean());
  if (options.faults) {
    table.row(0).cell("dropped (link)").cell(replay.traffic.dropped_link);
    table.row(0)
        .cell("dropped (site down)")
        .cell(replay.traffic.dropped_site_down);
    table.row(0).cell("latency spikes").cell(replay.traffic.latency_spikes);
    table.row(0).cell("retries").cell(replay.retry_stats.retries);
    table.row(0).cell("timeouts").cell(replay.retry_stats.timeouts);
    table.row(0).cell("give-ups").cell(replay.retry_stats.give_ups);
    table.row(0).cell("degraded reads").cell(replay.degraded_reads);
    table.row(0).cell("failed reads").cell(replay.failed_reads);
    table.row(0).cell("failed writes").cell(replay.failed_writes);
    table.row(0).cell("stale updates").cell(replay.stale_replica_updates);
  }
  if (run_online) {
    table.row(0).cell("online migrations").cell(replay.online_migrations);
    table.row(0).cell("online evictions").cell(replay.online_evictions);
    table.row(3).cell("migration traffic").cell(replay.migration_traffic);
    table.row(3).cell("online total cost").cell(engine_stats->total_cost());
    table.row(3).cell("hindsight total cost").cell(hindsight->total_cost());
    table.row(3).cell("competitive ratio").cell(competitive_ratio);
  }
  table.print(std::cout);

  obs::Json result_json = obs::Json::object();
  result_json["data_traffic"] = obs::Json(replay.traffic.data_traffic);
  result_json["analytic_cost"] = obs::Json(core::total_cost(scheme));
  result_json["requests"] = obs::Json(trace.size());
  result_json["local_reads"] = obs::Json(replay.local_reads);
  result_json["remote_reads"] = obs::Json(replay.remote_reads);
  result_json["data_messages"] = obs::Json(replay.traffic.data_messages);
  result_json["control_messages"] = obs::Json(replay.traffic.control_messages);
  result_json["mean_read_latency"] = obs::Json(replay.read_latency.mean());
  result_json["mean_write_latency"] = obs::Json(replay.write_latency.mean());
  if (options.faults) {
    result_json["dropped_link"] = obs::Json(replay.traffic.dropped_link);
    result_json["dropped_site_down"] =
        obs::Json(replay.traffic.dropped_site_down);
    result_json["latency_spikes"] = obs::Json(replay.traffic.latency_spikes);
    result_json["retries"] = obs::Json(replay.retry_stats.retries);
    result_json["timeouts"] = obs::Json(replay.retry_stats.timeouts);
    result_json["give_ups"] = obs::Json(replay.retry_stats.give_ups);
    result_json["duplicates"] = obs::Json(replay.retry_stats.duplicates);
    result_json["degraded_reads"] = obs::Json(replay.degraded_reads);
    result_json["failed_reads"] = obs::Json(replay.failed_reads);
    result_json["failed_writes"] = obs::Json(replay.failed_writes);
    result_json["stale_updates"] = obs::Json(replay.stale_replica_updates);
  }
  if (run_online) {
    result_json["trace_mode"] =
        obs::Json(workload::trace_mode_name(trace_config.mode));
    result_json["online_migrations"] = obs::Json(replay.online_migrations);
    result_json["online_evictions"] = obs::Json(replay.online_evictions);
    result_json["migration_traffic"] = obs::Json(replay.migration_traffic);
    result_json["online_total_cost"] = obs::Json(engine_stats->total_cost());
    result_json["online_serving_cost"] =
        obs::Json(engine_stats->serving_cost);
    result_json["online_windows"] = obs::Json(engine_stats->windows);
    result_json["hindsight_total_cost"] = obs::Json(hindsight->total_cost());
    result_json["competitive_ratio"] = obs::Json(competitive_ratio);
  }
  maybe_write_reports(args, "replay", std::move(result_json));
  return 0;
}

/// adapt --decentralized: every site runs its own EWMA drift detector over
/// the observed trace; triggered sites micro-retune their local view
/// through the registry "agra" adapter (ExecutionContext = their DES node)
/// and disseminate the changed columns as sequenced envelopes. See
/// DESIGN.md Section 15.
int cmd_adapt_decentralized(const Args& args) {
  const core::Problem old_problem = io::load_problem(args.require("in"));
  const core::Problem new_problem = io::load_problem(args.require("new"));
  const core::ReplicationScheme scheme =
      io::load_scheme(args.require("scheme"), old_problem);

  dist::DadaptOptions options;
  const algo::SolverOptions shared = solver_options_from(args);
  options.agra = shared.agra;
  options.agra.common = shared.common;
  options.seed = shared.common.seed;
  options.current_scheme = scheme.matrix();
  options.drift_threshold_percent = args.number("drift", 100.0);
  options.change_threshold_percent = args.number("threshold", 100.0);
  options.trace_seed = args.integer<std::uint64_t>("trace-seed", 1);
  options.predictor.window = args.integer<std::size_t>("window", 128);
  options.latency_per_cost = args.number("latency", 1.0);
  if (args.has("faults")) options.faults = parse_fault_plan(args);
  try {
    options.validate();
  } catch (const std::invalid_argument& error) {
    throw UsageError(error.what());
  }

  std::optional<dist::DadaptResult> round;
  {
    DREP_SPAN("cli/adapt_decentralized");
    round = dist::run_decentralized_adapt(old_problem, new_problem, options);
  }
  const algo::AlgorithmResult& result = round->result;
  io::save_scheme(args.require("out"), result.scheme);

  core::ReplicationScheme stale(new_problem, scheme.matrix());
  const double stale_savings = core::savings_percent(new_problem, stale);
  std::cout << round->drifted_sites.size() << " sites drifted, "
            << round->changed_objects.size()
            << " objects changed; stale savings "
            << util::format_double(stale_savings, 2) << "% -> adapted "
            << util::format_double(result.savings_percent, 2) << "% ("
            << round->retunes_run << " retunes, "
            << round->traffic.total_messages()
            << " messages, round time "
            << util::format_double(round->round_time, 2) << ")\n";

  obs::Json result_json = obs::Json::object();
  result_json["decentralized"] = obs::Json(true);
  result_json["drifted_sites"] = obs::Json(round->drifted_sites.size());
  result_json["changed_objects"] = obs::Json(round->changed_objects.size());
  result_json["retunes_run"] = obs::Json(round->retunes_run);
  result_json["updates_sent"] = obs::Json(round->updates_sent);
  result_json["updates_applied"] = obs::Json(round->updates_applied);
  result_json["updates_ignored"] = obs::Json(round->updates_ignored);
  result_json["directives_failed"] = obs::Json(round->directives_failed);
  result_json["directives_rejected"] = obs::Json(round->directives_rejected);
  result_json["messages"] = obs::Json(round->traffic.total_messages());
  result_json["dropped_messages"] =
      obs::Json(round->traffic.dropped_messages());
  result_json["retries"] = obs::Json(round->retry_stats.retries);
  result_json["give_ups"] = obs::Json(round->retry_stats.give_ups);
  result_json["round_time"] = obs::Json(round->round_time);
  result_json["stale_savings_percent"] = obs::Json(stale_savings);
  result_json["adapted_savings_percent"] = obs::Json(result.savings_percent);
  result_json["cost"] = obs::Json(result.cost);
  result_json["iterations"] = obs::Json(result.iterations);
  result_json["elapsed_seconds"] = obs::Json(result.elapsed_seconds);
  maybe_write_reports(args, "adapt", std::move(result_json));
  return 0;
}

int cmd_adapt(const Args& args) {
  if (args.has("decentralized")) return cmd_adapt_decentralized(args);
  const core::Problem old_problem = io::load_problem(args.require("in"));
  const core::Problem new_problem = io::load_problem(args.require("new"));
  const core::ReplicationScheme scheme =
      io::load_scheme(args.require("scheme"), old_problem);

  // Detect which objects shifted beyond the threshold (the monitor's rule,
  // with OLD's per-object totals as the baseline), then run AGRA.
  const double threshold = args.number("threshold", 100.0);
  if (!(threshold >= 0.0))
    throw UsageError("--threshold must be >= 0");
  if (new_problem.sites() != old_problem.sites() ||
      new_problem.objects() != old_problem.objects())
    throw std::invalid_argument(
        "NEW is " + std::to_string(new_problem.sites()) + " sites x " +
        std::to_string(new_problem.objects()) + " objects, OLD is " +
        std::to_string(old_problem.sites()) + " x " +
        std::to_string(old_problem.objects()));
  std::vector<double> baseline_reads(old_problem.objects());
  std::vector<double> baseline_writes(old_problem.objects());
  for (core::ObjectId k = 0; k < old_problem.objects(); ++k) {
    baseline_reads[k] = old_problem.total_reads(k);
    baseline_writes[k] = old_problem.total_writes(k);
  }
  const std::vector<core::ObjectId> changed = sim::changed_objects(
      baseline_reads, baseline_writes, new_problem, threshold);
  algo::SolveRequest request{new_problem, solver_options_from(args)};
  const ga::Chromosome current = scheme.matrix();
  request.adapt =
      algo::AdaptContext{&current, /*retained_population=*/{}, changed};
  std::optional<algo::SolveResponse> response;
  {
    DREP_SPAN("cli/adapt");
    response = algo::solver_registry().at("agra").solve(request);
  }
  const algo::AlgorithmResult& result = response->result;
  io::save_scheme(args.require("out"), result.scheme);

  core::ReplicationScheme stale(new_problem, current);
  const double stale_savings = core::savings_percent(new_problem, stale);
  std::cout << changed.size() << " objects changed; stale savings "
            << util::format_double(stale_savings, 2) << "% -> adapted "
            << util::format_double(result.savings_percent, 2) << "% in "
            << util::format_double(result.elapsed_seconds, 4) << "s\n";

  // --faults: static what-if analysis of the adapted scheme under the
  // plan's crash windows — worst case over every window-opening instant.
  std::optional<sim::DegradedService> degraded;
  if (args.has("faults")) {
    const sim::FaultPlan plan = parse_fault_plan(args);
    degraded = sim::evaluate_with_failures(result.scheme, plan, 0.0);
    for (const sim::CrashWindow& window : plan.crashes) {
      const sim::DegradedService at_window = sim::evaluate_with_failures(
          result.scheme, plan, window.from);
      if (at_window.read_availability < degraded->read_availability)
        degraded = at_window;
    }
    std::cout << "under faults: read availability "
              << util::format_double(degraded->read_availability, 4)
              << ", write availability "
              << util::format_double(degraded->write_availability, 4) << ", "
              << degraded->objects_lost << " objects lost\n";
  }

  obs::Json result_json = obs::Json::object();
  if (degraded) {
    result_json["read_availability"] = obs::Json(degraded->read_availability);
    result_json["write_availability"] =
        obs::Json(degraded->write_availability);
    result_json["objects_lost"] = obs::Json(degraded->objects_lost);
    result_json["degraded_read_cost"] =
        obs::Json(degraded->degraded_read_cost);
  }
  result_json["changed_objects"] = obs::Json(changed.size());
  result_json["stale_savings_percent"] = obs::Json(stale_savings);
  result_json["adapted_savings_percent"] = obs::Json(result.savings_percent);
  result_json["cost"] = obs::Json(result.cost);
  result_json["iterations"] = obs::Json(result.iterations);
  result_json["elapsed_seconds"] = obs::Json(result.elapsed_seconds);
  for (auto& [key, value] : response->details.as_object())
    result_json[key] = std::move(value);
  maybe_write_reports(args, "adapt", std::move(result_json));
  return 0;
}

/// The serving front-end: `serve --mode=timed` measures throughput and tail
/// latency against wall clock with a concurrent retune thread; `serve
/// --mode=trace` replays the problem's shuffled trace with retunes pinned to
/// trace positions and prints the outcome hash that must be bit-identical
/// across --workers values.
int cmd_serve(const Args& args) {
  const core::Problem problem = io::load_problem(args.require("in"));
  const std::string algo_name = args.get("algo", "sra");
  if (algo::solver_registry().find(algo_name) == nullptr)
    throw UsageError("unknown --algo=" + algo_name + " (" +
                     solver_names_joined() + ")");

  serve::ServeConfig config;
  config.workers = args.integer<std::size_t>("workers", 1);
  config.seed = args.integer<std::uint64_t>("seed", 1);
  config.algo = algo_name;
  config.batch = args.integer<std::size_t>("batch", 256);
  config.audit = args.has("audit");
  config.duration_seconds = args.number("duration", 1.0);
  config.retune_interval_seconds = args.number("retune-interval", 0.0);
  config.retune_every = args.integer<std::size_t>("retune-every", 0);
  config.load.write_fraction = args.number("write-fraction", 0.05);
  try {
    config.validate();
  } catch (const std::invalid_argument& error) {
    throw UsageError(error.what());
  }

  const std::string mode = args.get("mode", "timed");
  if (mode == "timed") {
    if (args.has("retune-every"))
      throw UsageError("--retune-every requires --mode=trace");
  } else if (mode == "trace") {
    for (const char* timed_only :
         {"duration", "retune-interval", "write-fraction"}) {
      if (args.has(timed_only))
        throw UsageError("--" + std::string(timed_only) +
                         " requires --mode=timed");
    }
  } else {
    throw UsageError("--mode expects timed|trace, got '" + mode + "'");
  }

  serve::ServeReport report;
  if (mode == "trace") {
    util::Rng rng(config.seed);
    const std::vector<workload::Request> trace =
        workload::build_trace(problem, rng);
    DREP_SPAN("cli/serve");
    report = serve::serve_trace(problem, trace, config);
  } else {
    DREP_SPAN("cli/serve");
    report = serve::serve_timed(problem, config);
  }

  std::ostringstream hash_hex;
  hash_hex << std::hex << std::setw(16) << std::setfill('0')
           << report.outcome_hash;

  util::Table table({"metric", "value"});
  table.row(0).cell("mode").cell(mode);
  table.row(0).cell("workers").cell(config.workers);
  table.row(0).cell("requests").cell(report.requests);
  table.row(4).cell("seconds").cell(report.seconds);
  table.row(0).cell("requests/sec")
      .cell(static_cast<std::size_t>(report.requests_per_second));
  table.row(0).cell("generations").cell(report.generations);
  table.row(0).cell("retunes").cell(report.retunes);
  if (mode == "trace") {
    table.row(0).cell("outcome hash").cell(hash_hex.str());
    table.row(3).cell("served cost").cell(report.served_cost);
  } else {
    table.row(3).cell("p50 us").cell(report.p50_us);
    table.row(3).cell("p99 us").cell(report.p99_us);
    table.row(3).cell("p999 us").cell(report.p999_us);
  }
  table.row(0).cell("snapshots reclaimed").cell(report.reclaimed);
  table.print(std::cout);

  obs::Json result_json = obs::Json::object();
  result_json["mode"] = obs::Json(mode);
  result_json["algo"] = obs::Json(algo_name);
  result_json["workers"] = obs::Json(config.workers);
  result_json["requests"] = obs::Json(report.requests);
  result_json["seconds"] = obs::Json(report.seconds);
  result_json["requests_per_second"] = obs::Json(report.requests_per_second);
  result_json["generations"] = obs::Json(report.generations);
  result_json["retunes"] = obs::Json(report.retunes);
  result_json["reclaimed"] = obs::Json(report.reclaimed);
  if (mode == "trace") {
    result_json["outcome_hash"] = obs::Json(hash_hex.str());
    result_json["served_cost"] = obs::Json(report.served_cost);
  } else {
    result_json["p50_us"] = obs::Json(report.p50_us);
    result_json["p99_us"] = obs::Json(report.p99_us);
    result_json["p999_us"] = obs::Json(report.p999_us);
  }
  maybe_write_reports(args, "serve", std::move(result_json));
  return 0;
}

void usage(std::ostream& out) {
  out << "drep <command> [flags]\n"
         "  generate --sites=N --objects=N [--update=%] [--capacity=%] [--seed=N] -o FILE\n"
         "           [--topology=complete|tree] [--shape=random|chain|star]\n"
         "           [--fanout=N] [--skew=F] [--clients=N]\n"
         "  solve    -i FILE [-o FILE] --algo=" << solver_names_joined() << "\n"
         "           [--generations=N] [--population=N] [--islands=N] [--mini=N]\n"
         "           [--seed=N] [--threads=N] [--avail-target=P --faults=SPEC]\n"
         "           [--latency=F] [--ceiling=F] [--audit]\n"
         "  evaluate -i FILE [-s SCHEME]\n"
         "  replay   -i FILE [-s SCHEME] [--seed=N] [--faults=SPEC] [--online]\n"
         "           [--trace=uniform|drifting|flash|adversarial] [--phases=N]\n"
         "           [--window=N] [--trust=F] [--predictions=ewma|oracle|adversarial]\n"
         "  adapt    -i OLD -n NEW -s SCHEME -o FILE [--threshold=%] [--mini=N] [--seed=N]\n"
         "           [--threads=N] [--faults=SPEC] [--decentralized] [--drift=%]\n"
         "           [--trace-seed=N] [--window=N] [--latency=F]\n"
         "  serve    -i FILE [--mode=timed|trace] [--workers=W] [--algo=NAME] [--seed=N]\n"
         "           [--batch=N] [--audit] [--duration=S] [--retune-interval=S]\n"
         "           [--write-fraction=F] [--retune-every=N]\n"
         "  help\n"
         "--threads=N sizes the shared worker pool (0 = all cores, 1 = serial);\n"
         "--islands=N runs GRA as N parallel islands with ring migration. Results\n"
         "are identical for every --threads value; see DESIGN.md Section 10.\n"
         "solve/evaluate/replay/adapt also take --report=FILE.json (machine-readable\n"
         "run report: config, result, metrics, span timings) and --prom=FILE\n"
         "(Prometheus text exposition of the metric snapshot).\n"
         "--faults=SPEC injects deterministic faults, e.g.\n"
         "  --faults=seed=7,drop=0.1,spike=0.05,spikex=4,crash=2@10..500\n"
         "(drop/spike probabilities, spike factor, crash=SITE@FROM..UNTIL with\n"
         "empty UNTIL meaning forever). replay drives the DES through the plan;\n"
         "adapt reports the adapted scheme's worst-case availability under it.\n"
         "adapt re-tunes the objects whose read or write total in NEW deviates\n"
         "from OLD's by at least --threshold percent (default 100); OLD and NEW\n"
         "must have the same sites and objects. --threshold=0 adapts every\n"
         "object, as the monitor and the decentralized round do.\n"
         "generate --topology=tree draws a tree-metric oracle instance (ample\n"
         "capacity by default) on which --algo=treedp is the provable optimum.\n"
         "solve --algo=dgra runs the island GA decentralized: one island per DES\n"
         "node with elite migrations as sequenced protocol messages (DESIGN.md\n"
         "Section 15). On a perfect network it is bit-for-bit --algo=gra at the\n"
         "same --islands and --seed; --faults=SPEC subjects the migrations to\n"
         "drops/crashes with bounded retries, --latency=F scales DES latency,\n"
         "--ceiling=F pins the degradation ceiling and --audit enforces the\n"
         "convergence invariants against an in-process centralized run.\n"
         "adapt --decentralized replaces the central monitor with per-site EWMA\n"
         "drift detectors (--drift=%, --window=N, --trace-seed=N): triggered\n"
         "sites micro-retune their local view and disseminate changed replica\n"
         "columns as sequenced envelopes; --faults applies to that round.\n"
         "solve --avail-target=P adds the per-object availability floor A_k >= P,\n"
         "with site availabilities derived from the --faults crash windows; the\n"
         "heuristics repair their schemes to meet it, the exact solvers optimize\n"
         "under it. Exact solvers (treedp, constclients, exhaustive) exit 2 when\n"
         "an instance exceeds their enumeration budget.\n"
         "replay --trace=MODE samples a seeded, phase-structured scenario trace\n"
         "instead of the problem's exact request matrices (--phases=N phases,\n"
         "default 8): drifting rotates a hot object block one block per phase,\n"
         "flash spikes a fixed block from a crowd of sites in the middle phase\n"
         "only, adversarial alternates two disjoint hot blocks every phase so\n"
         "trained predictions are confidently wrong.\n"
         "replay --online streams the ski-rental replicate/evict engine over the\n"
         "trace, mutating the scheme mid-epoch, and reports online_migrations,\n"
         "online_evictions and the competitive_ratio against a hindsight-optimal\n"
         "referee; solve --algo=online does the same over the matrices' shuffled\n"
         "trace. --window=N sets the predictor window, --trust=F in [0,1] how far\n"
         "hot/warm/cold predictions bend the break-even thresholds, and\n"
         "--predictions picks their source (ewma|oracle|adversarial).\n"
         "serve routes simulated requests against RCU-published scheme snapshots\n"
         "(DESIGN.md Section 14). --mode=timed (default) drives seeded per-worker\n"
         "request rings for --duration=S seconds while a retune thread re-solves on\n"
         "the observed counts every --retune-interval=S and publishes without ever\n"
         "blocking a reader; reports requests/sec and p50/p99/p999 latency.\n"
         "--mode=trace replays the problem's shuffled trace with a retune pinned\n"
         "after every --retune-every requests; the printed outcome_hash is\n"
         "bit-identical for every --workers value (CI pins workers=1/2/4).\n"
         "--audit cross-checks every snapshot against its source scheme before\n"
         "publication.\n";
}

const std::set<std::string> kGenerateFlags = {
    "sites", "objects", "update", "capacity", "seed",
    "out",   "topology", "shape", "fanout",   "skew",
    "clients"};
const std::set<std::string> kSolveFlags = {
    "in",      "out",  "algo",   "generations", "population", "islands",
    "threads", "mini", "seed",   "report",      "prom",
    "avail-target", "faults", "window", "trust", "predictions",
    "latency", "ceiling", "audit"};
const std::set<std::string> kEvaluateFlags = {"in", "scheme", "report",
                                              "prom"};
const std::set<std::string> kReplayFlags = {
    "in",     "scheme", "seed",   "report", "prom",  "faults", "online",
    "trace",  "phases", "window", "trust",  "predictions"};
const std::set<std::string> kAdaptFlags = {
    "in",   "new",  "scheme", "out",  "threshold", "mini",
    "seed", "threads", "report", "prom", "faults",
    "decentralized", "drift", "trace-seed", "window", "latency"};
const std::set<std::string> kServeFlags = {
    "in",    "mode",  "workers", "algo",           "seed",
    "batch", "audit", "duration", "retune-interval", "write-fraction",
    "retune-every", "report", "prom"};

}  // namespace

int run(int argc, char** argv) {
  // Tests invoke run() repeatedly in one process; each invocation is one
  // "run", so reports must not see a previous invocation's numbers.
  obs::Registry::global().reset();
  obs::SpanRegistry::global().reset();
  // The online and dist solvers live above algo in the layering, so the
  // registry cannot register them itself (idempotent; see online/solver.hpp
  // and dist/solver.hpp).
  online::register_online_solver();
  dist::register_dist_solvers();

  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    usage(std::cout);
    return 0;
  }
  try {
    if (command == "generate")
      return cmd_generate(parse_args(argc, argv, 2, kGenerateFlags));
    if (command == "solve")
      return cmd_solve(parse_args(argc, argv, 2, kSolveFlags));
    if (command == "evaluate")
      return cmd_evaluate(parse_args(argc, argv, 2, kEvaluateFlags));
    if (command == "replay")
      return cmd_replay(parse_args(argc, argv, 2, kReplayFlags));
    if (command == "adapt")
      return cmd_adapt(parse_args(argc, argv, 2, kAdaptFlags));
    if (command == "serve")
      return cmd_serve(parse_args(argc, argv, 2, kServeFlags));
    throw UsageError("unknown command '" + command + "'");
  } catch (const UsageError& error) {
    std::cerr << "drep: " << error.what() << "\n"
              << "usage: drep <generate|solve|evaluate|replay|adapt|serve|help> "
                 "[flags] -- run 'drep help' for details\n";
    return 2;
  } catch (const algo::InstanceTooLarge& error) {
    // An exact solver refused an instance beyond its enumeration budget:
    // the request (not the run) was at fault, same exit code as UsageError.
    std::cerr << "drep " << command << ": " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "drep " << command << ": " << error.what() << '\n';
    return 1;
  }
}

}  // namespace drep::cli
