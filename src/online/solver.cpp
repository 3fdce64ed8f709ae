#include "online/solver.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audit/invariants.hpp"
#include "online/engine.hpp"
#include "online/referee.hpp"
#include "obs/span.hpp"
#include "util/timer.hpp"
#include "workload/trace.hpp"

namespace drep::online {

namespace {

const char* source_name(algo::PredictionSource source) {
  switch (source) {
    case algo::PredictionSource::kOracle:
      return "oracle";
    case algo::PredictionSource::kAdversarial:
      return "adversarial";
    case algo::PredictionSource::kEwma:
      break;
  }
  return "ewma";
}

class OnlineSolver final : public algo::Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "online"; }

  [[nodiscard]] algo::SolveResponse solve(
      const algo::SolveRequest& request) const override {
    DREP_SPAN("online/solve");
    if (request.options.availability.has_value()) {
      throw std::invalid_argument(
          "online: availability-constrained solves are not supported (the "
          "engine evicts replicas mid-epoch, which cannot honor a floor on "
          "replica sets)");
    }
    const algo::OnlineOptions& options = request.options.online;
    util::Stopwatch watch;
    util::Rng local(request.options.common.seed);
    util::Rng& rng =
        request.options.rng != nullptr ? *request.options.rng : local;

    // The problem's request matrices, materialized as a shuffled request
    // stream — the same bridge the DES replay uses.
    const std::vector<workload::Request> trace =
        workload::build_trace(request.problem, rng);

    core::ReplicationScheme scheme(request.problem);  // primary-only start
    OnlineEngine engine(scheme, engine_config_from(options));
    engine.prime(trace);
    engine.run(trace);
    const EngineStats& stats = engine.stats();

    RefereeConfig referee;
    referee.window = options.window;
    const RefereeReport hindsight =
        hindsight_cost(request.problem, trace, referee);
    const double ratio = hindsight.total_cost() > 0.0
                             ? stats.total_cost() / hindsight.total_cost()
                             : 1.0;

    algo::SolveResponse response{
        algo::make_result(std::move(scheme), watch.seconds()), {}};
    response.result.iterations = std::max<std::size_t>(1, trace.size());
    response.details["online_total_cost"] = obs::Json(stats.total_cost());
    response.details["online_serving_cost"] = obs::Json(stats.serving_cost);
    response.details["online_migration_cost"] =
        obs::Json(stats.migration_cost);
    response.details["online_migrations"] = obs::Json(stats.migrations);
    response.details["online_evictions"] = obs::Json(stats.evictions);
    response.details["online_capacity_evictions"] =
        obs::Json(stats.capacity_evictions);
    response.details["online_capacity_skips"] =
        obs::Json(stats.capacity_skips);
    response.details["online_windows"] = obs::Json(stats.windows);
    response.details["hindsight_total_cost"] =
        obs::Json(hindsight.total_cost());
    response.details["hindsight_retunes"] = obs::Json(hindsight.retunes);
    response.details["competitive_ratio"] = obs::Json(ratio);
    response.details["prediction_source"] =
        obs::Json(source_name(options.source));

    if (request.options.common.audit) {
      audit::enforce(
          audit::merge(audit::check_scheme(response.result.scheme),
                       audit::check_online_log(
                           request.problem, stats.initial_matrix, stats.log,
                           response.result.scheme)),
          "solver/online");
    }
    return response;
  }
};

}  // namespace

void register_online_solver() {
  if (algo::solver_registry().find("online") != nullptr) return;
  algo::solver_registry().add(std::make_unique<OnlineSolver>());
}

}  // namespace drep::online
