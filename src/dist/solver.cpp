#include "dist/solver.hpp"

#include <memory>
#include <string>
#include <utility>

#include "audit/invariants.hpp"
#include "core/availability.hpp"
#include "dist/dgra.hpp"
#include "util/timer.hpp"

namespace drep::dist {

namespace {

class DgraSolver final : public algo::Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "dgra"; }

  [[nodiscard]] algo::SolveResponse solve(
      const algo::SolveRequest& request) const override {
    DgraOptions options;
    options.gra = request.options.gra;
    options.gra.common = request.options.common;
    options.latency_per_cost = request.options.dist.latency_per_cost;
    if (!request.options.dist.faults_spec.empty())
      options.faults = sim::FaultPlan::parse(request.options.dist.faults_spec);

    util::Rng local(request.options.common.seed);
    util::Rng& rng = request.options.rng != nullptr ? *request.options.rng
                                                    : local;
    // The centralized comparator must consume an identical stream, so copy
    // the state before the decentralized run advances it.
    const util::Rng comparator_rng = rng;

    DgraResult dist = run_decentralized_gra(request.problem, options, rng);

    algo::SolveResponse response{std::move(dist.merged.best),
                                 std::move(dist.merged.population)};
    response.details["evaluations"] = obs::Json(dist.merged.evaluations);
    response.details["full_equivalent_evaluations"] =
        obs::Json(dist.merged.full_equivalent_evaluations);
    response.details["islands"] = obs::Json(options.gra.islands);
    obs::Json history = obs::Json::array();
    for (const double fitness : dist.merged.best_fitness_history)
      history.push_back(obs::Json(fitness));
    response.details["best_fitness_history"] = std::move(history);
    response.details["decentralized"] = obs::Json(true);
    // As a decimal string: the JSON number lane is a double and would
    // truncate a 64-bit fingerprint.
    response.details["scheme_hash"] = obs::Json(
        std::to_string(chromosome_hash(response.result.scheme.matrix())));
    response.details["epochs"] = obs::Json(dist.epochs);
    response.details["round_time"] = obs::Json(dist.round_time);
    response.details["data_traffic"] = obs::Json(dist.traffic.data_traffic);
    response.details["messages"] = obs::Json(dist.traffic.total_messages());
    response.details["dropped_messages"] =
        obs::Json(dist.traffic.dropped_messages());
    response.details["migrations_sent"] = obs::Json(dist.migrations_sent);
    response.details["migrations_applied"] =
        obs::Json(dist.migrations_applied);
    response.details["migrations_missed"] = obs::Json(dist.migrations_missed);
    response.details["elites_readmitted"] = obs::Json(dist.elites_readmitted);
    response.details["islands_crashed"] = obs::Json(dist.islands_crashed);
    response.details["retries"] = obs::Json(dist.retry_stats.retries);
    response.details["give_ups"] = obs::Json(dist.retry_stats.give_ups);

    if (request.options.common.audit) {
      // The centralized comparator: the same registry-equivalent free
      // function, same config, identically-seeded stream.
      util::Rng central_rng = comparator_rng;
      const algo::GraResult central =
          algo::solve_gra(request.problem, options.gra, central_rng);
      audit::DistConvergenceCounts counts;
      counts.perfect_network = !options.faults.has_value();
      counts.decentralized_cost = response.result.cost;
      counts.centralized_cost = central.best.cost;
      counts.decentralized_scheme_hash =
          chromosome_hash(response.result.scheme.matrix());
      counts.centralized_scheme_hash =
          chromosome_hash(central.best.scheme.matrix());
      counts.decentralized_evaluations = dist.merged.evaluations;
      counts.centralized_evaluations = central.evaluations;
      counts.cost_ceiling_factor =
          request.options.dist.cost_ceiling_factor;
      audit::enforce(
          audit::merge(audit::check_dist_convergence(counts),
                       audit::merge(audit::check_envelope_log(
                                        dist.envelope_log),
                                    audit::check_scheme(
                                        response.result.scheme))),
          "solver/dgra");
      response.details["centralized_cost"] = obs::Json(central.best.cost);
    }

    // Availability repair, mirroring the registry's heuristic-solver
    // post-pass (after the convergence audit, which compares raw solves).
    if (request.options.availability.has_value()) {
      util::Stopwatch watch;
      const std::size_t added = core::repair_availability(
          response.result.scheme, *request.options.availability);
      if (added > 0) {
        algo::AlgorithmResult repaired = algo::make_result(
            std::move(response.result.scheme),
            response.result.elapsed_seconds + watch.seconds());
        repaired.iterations = response.result.iterations;
        response.result = std::move(repaired);
        response.population.clear();
      }
      response.details["availability_replicas_added"] = obs::Json(added);
      response.details["availability_target"] =
          obs::Json(request.options.availability->target);
    }
    return response;
  }
};

}  // namespace

void register_dist_solvers() {
  if (algo::solver_registry().find("dgra") != nullptr) return;
  algo::solver_registry().add(std::make_unique<DgraSolver>());
}

}  // namespace drep::dist
