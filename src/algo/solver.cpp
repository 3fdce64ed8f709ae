#include "algo/solver.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "algo/baselines.hpp"
#include "algo/exhaustive.hpp"
#include "audit/invariants.hpp"
#include "util/timer.hpp"

namespace drep::algo {

namespace {

/// Resolves the request's RNG: the external stream when provided, otherwise
/// a fresh stream seeded from common.seed.
class RequestRng {
 public:
  explicit RequestRng(const SolverOptions& options)
      : local_(options.common.seed),
        rng_(options.rng != nullptr ? *options.rng : local_) {}
  [[nodiscard]] util::Rng& get() noexcept { return rng_; }

 private:
  util::Rng local_;
  util::Rng& rng_;
};

/// The options.common.audit gate: always-built final-scheme validation,
/// independent of the compile-time DREP_AUDIT hooks. With an availability
/// constraint in the request, conformance to it is audited too.
void maybe_audit(const SolveRequest& request, const AlgorithmResult& result,
                 const std::string& where) {
  if (!request.options.common.audit) return;
  audit::Violations violations = audit::check_scheme(result.scheme);
  if (request.options.availability.has_value()) {
    violations = audit::merge(
        std::move(violations),
        audit::check_availability(result.scheme,
                                  *request.options.availability));
  }
  audit::enforce(std::move(violations), where);
}

/// Post-pass for the heuristic solvers: greedily add replicas until every
/// object meets the availability target, then rebuild the result core so
/// cost/savings/extra_replicas describe the repaired scheme. Iteration
/// counts and wall time of the base solve are preserved; the repair cost
/// rides on top of elapsed_seconds.
void apply_availability(const SolveRequest& request, SolveResponse& response,
                        const std::string& where) {
  if (!request.options.availability.has_value()) return;
  util::Stopwatch watch;
  const std::size_t added = core::repair_availability(
      response.result.scheme, *request.options.availability);
  if (added > 0) {
    AlgorithmResult repaired =
        make_result(std::move(response.result.scheme),
                    response.result.elapsed_seconds + watch.seconds());
    repaired.iterations = response.result.iterations;
    response.result = std::move(repaired);
    // The repaired scheme may no longer match the solver's retained
    // population (GRA/AGRA); drop it rather than hand back stale elites.
    response.population.clear();
  }
  response.details["availability_replicas_added"] = obs::Json(added);
  response.details["availability_target"] =
      obs::Json(request.options.availability->target);
  (void)where;
}

class SraSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "sra"; }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    SraConfig config = request.options.sra;
    config.common = request.options.common;
    RequestRng rng(request.options);
    SraStats stats;
    SolveResponse response{solve_sra(request.problem, config, rng.get(),
                                     &stats)};
    response.details["site_visits"] = obs::Json(stats.site_visits);
    response.details["benefit_evaluations"] =
        obs::Json(stats.benefit_evaluations);
    response.details["replicas_created"] = obs::Json(stats.replicas_created);
    apply_availability(request, response, "solver/sra");
    maybe_audit(request, response.result, "solver/sra");
    return response;
  }
};

class GraSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "gra"; }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    GraConfig config = request.options.gra;
    config.common = request.options.common;
    RequestRng rng(request.options);
    GraResult gra = solve_gra(request.problem, config, rng.get());
    SolveResponse response{std::move(gra.best), std::move(gra.population)};
    response.details["evaluations"] = obs::Json(gra.evaluations);
    response.details["full_equivalent_evaluations"] =
        obs::Json(gra.full_equivalent_evaluations);
    response.details["islands"] = obs::Json(config.islands);
    obs::Json history = obs::Json::array();
    for (const double fitness : gra.best_fitness_history)
      history.push_back(obs::Json(fitness));
    response.details["best_fitness_history"] = std::move(history);
    apply_availability(request, response, "solver/gra");
    maybe_audit(request, response.result, "solver/gra");
    return response;
  }
};

class AgraSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "agra"; }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    AgraConfig config = request.options.agra;
    config.common = request.options.common;
    RequestRng rng(request.options);

    // From-scratch default: every object changed, starting from the
    // primary-only allocation (what `drep solve --algo=agra` does).
    ga::Chromosome primary;
    std::vector<core::ObjectId> all_objects;
    AdaptContext adapt = request.adapt.value_or(AdaptContext{});
    if (adapt.current_scheme == nullptr) {
      primary = primary_chromosome(request.problem);
      adapt.current_scheme = &primary;
    }
    if (!request.adapt.has_value()) {
      all_objects.resize(request.problem.objects());
      std::iota(all_objects.begin(), all_objects.end(), core::ObjectId{0});
      adapt.changed_objects = all_objects;
    }

    AgraResult agra =
        solve_agra(request.problem, *adapt.current_scheme,
                   adapt.retained_population, adapt.changed_objects, config,
                   rng.get());
    SolveResponse response{std::move(agra.best), std::move(agra.population)};
    response.details["transcription_repairs"] = obs::Json(agra.repairs);
    response.details["micro_ga_seconds"] = obs::Json(agra.micro_ga_seconds);
    response.details["mini_gra_seconds"] = obs::Json(agra.mini_gra_seconds);
    apply_availability(request, response, "solver/agra");
    maybe_audit(request, response.result, "solver/agra");
    return response;
  }
};

class AdrSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "adr"; }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    AdrStats stats;
    SolveResponse response{
        solve_adr_mst(request.problem, request.options.adr, &stats)};
    response.details["expansions"] = obs::Json(stats.expansions);
    response.details["contractions"] = obs::Json(stats.contractions);
    response.details["rounds"] = obs::Json(stats.rounds);
    apply_availability(request, response, "solver/adr");
    maybe_audit(request, response.result, "solver/adr");
    return response;
  }
};

class HillClimbSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "hillclimb"; }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    HillClimbStats stats;
    SolveResponse response{
        hill_climb(request.problem, nullptr, /*max_moves=*/10000, &stats)};
    response.result.iterations = stats.insertions + stats.removals;
    response.details["insertions"] = obs::Json(stats.insertions);
    response.details["removals"] = obs::Json(stats.removals);
    response.details["delta_evaluations"] = obs::Json(stats.delta_evaluations);
    apply_availability(request, response, "solver/hillclimb");
    maybe_audit(request, response.result, "solver/hillclimb");
    return response;
  }
};

class ExhaustiveSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "exhaustive"; }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    ExhaustiveStats stats;
    const core::AvailabilityConstraint* availability =
        request.options.availability.has_value()
            ? &*request.options.availability
            : nullptr;
    std::optional<AlgorithmResult> optimal = solve_exhaustive(
        request.problem, request.options.exhaustive_max_free_cells, &stats,
        availability, request.options.exhaustive_max_nodes);
    if (!optimal) {
      throw InstanceTooLarge(
          "exhaustive: instance exceeds exhaustive_max_free_cells free "
          "cells (use a tiny problem)");
    }
    SolveResponse response{std::move(*optimal)};
    response.details["nodes_visited"] = obs::Json(stats.nodes_visited);
    response.details["pruned"] = obs::Json(stats.pruned);
    if (availability != nullptr) {
      response.details["availability_rejected"] =
          obs::Json(stats.availability_rejected);
      response.details["availability_target"] =
          obs::Json(availability->target);
    }
    maybe_audit(request, response.result, "solver/exhaustive");
    return response;
  }
};

/// The exact oracles refuse availability-constrained requests outright:
/// their optimality proofs are for the unconstrained per-object objective,
/// and a repaired scheme would silently stop being an optimum.
void reject_availability(const SolveRequest& request, const char* who) {
  if (request.options.availability.has_value()) {
    throw std::invalid_argument(
        std::string(who) +
        ": availability-constrained solves are not supported by the exact "
        "oracles (use exhaustive for an exact constrained optimum, or a "
        "heuristic solver with repair)");
  }
}

class TreeDpSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "treedp"; }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    reject_availability(request, "treedp");
    TreeDpConfig config = request.options.treedp;
    config.common = request.options.common;
    TreeDpStats stats;
    SolveResponse response{solve_tree_dp(request.problem, config, &stats)};
    response.details["dp_runs"] = obs::Json(stats.dp_runs);
    response.details["refined_objects"] = obs::Json(stats.refined_objects);
    response.details["lex_smallest"] = obs::Json(config.lex_smallest);
    maybe_audit(request, response.result, "solver/treedp");
    return response;
  }
};

class ConstClientsSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "constclients";
  }
  [[nodiscard]] SolveResponse solve(const SolveRequest& request) const override {
    reject_availability(request, "constclients");
    ConstClientsConfig config = request.options.constclients;
    config.common = request.options.common;
    ConstClientsStats stats;
    SolveResponse response{
        solve_const_clients(request.problem, config, &stats)};
    response.details["partitions_evaluated"] =
        obs::Json(stats.partitions_evaluated);
    response.details["max_clients_seen"] = obs::Json(stats.max_clients_seen);
    maybe_audit(request, response.result, "solver/constclients");
    return response;
  }
};

}  // namespace

void SolverRegistry::add(std::unique_ptr<Solver> solver) {
  if (solver == nullptr)
    throw std::invalid_argument("SolverRegistry: null solver");
  const std::string_view key = solver->name();
  for (auto& held : solvers_) {
    if (held->name() == key) {
      held = std::move(solver);
      return;
    }
  }
  solvers_.push_back(std::move(solver));
}

const Solver* SolverRegistry::find(std::string_view name) const noexcept {
  for (const auto& solver : solvers_) {
    if (solver->name() == name) return solver.get();
  }
  return nullptr;
}

const Solver& SolverRegistry::at(std::string_view name) const {
  const Solver* solver = find(name);
  if (solver != nullptr) return *solver;
  std::string message = "unknown solver '" + std::string(name) + "' (have:";
  for (const std::string_view known : names())
    message += " " + std::string(known);
  message += ")";
  throw std::invalid_argument(message);
}

std::vector<std::string_view> SolverRegistry::names() const {
  std::vector<std::string_view> out;
  out.reserve(solvers_.size());
  for (const auto& solver : solvers_) out.push_back(solver->name());
  std::sort(out.begin(), out.end());
  return out;
}

SolverRegistry& solver_registry() {
  static SolverRegistry registry = [] {
    SolverRegistry built;
    built.add(std::make_unique<SraSolver>());
    built.add(std::make_unique<GraSolver>());
    built.add(std::make_unique<AgraSolver>());
    built.add(std::make_unique<AdrSolver>());
    built.add(std::make_unique<HillClimbSolver>());
    built.add(std::make_unique<ExhaustiveSolver>());
    built.add(std::make_unique<TreeDpSolver>());
    built.add(std::make_unique<ConstClientsSolver>());
    return built;
  }();
  return registry;
}

}  // namespace drep::algo
