#pragma once
// drep::Solver — the uniform, name-keyed interface over every replication
// algorithm in this repo (DESIGN.md Section 10).
//
// Each algorithm keeps its typed free function (solve_sra, solve_gra, …) as
// the low-level entry point, but call sites that pick an algorithm at
// runtime — the CLI's --algo flag, the epoch simulation's adaptation
// policies, the pipeline fuzzer — dispatch through the registry instead:
//
//   algo::SolverOptions options;
//   options.common.seed = 7;
//   const algo::SolveResponse response =
//       algo::solver_registry().at("gra").solve({problem, options});
//
// Every solver consumes the same SolveRequest and produces the same
// SolveResponse core (cost, scheme, iterations, wall time), so run-report
// rows are schema-identical across algorithms; algorithm-specific extras
// ride in `details` as a flat JSON object.
//
// Built-in names: "sra", "gra", "agra", "adr", "hillclimb", "exhaustive",
// "treedp", "constclients". The online engine registers itself as "online"
// via online::register_online_solver() (called by the CLI and the tools),
// because its adapter lives above sim in the module layering.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algo/adr.hpp"
#include "algo/agra.hpp"
#include "algo/common.hpp"
#include "algo/exhaustive.hpp"
#include "algo/gra.hpp"
#include "algo/result.hpp"
#include "algo/sra.hpp"
#include "algo/tree_dp.hpp"
#include "core/availability.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"

namespace drep::algo {

/// Everything a solver may need beyond the problem. Each adapter reads the
/// config block it understands and ignores the rest; `common` overrides the
/// chosen config's own embedded CommonOptions, so seed/threads/audit/time
/// limit spell the same for every algorithm.
struct SolverOptions {
  CommonOptions common{};

  SraConfig sra{};
  GraConfig gra{};
  AgraConfig agra{};
  AdrConfig adr{};
  TreeDpConfig treedp{};
  ConstClientsConfig constclients{};
  /// Consumed by "online" (src/online/), which registers itself via
  /// online::register_online_solver() — the registry's built-ins stop at
  /// the offline algorithms so algo does not depend upward on sim.
  OnlineOptions online{};
  /// Exhaustive search refuses instances with more free cells than this.
  std::size_t exhaustive_max_free_cells = 24;
  /// Exhaustive search aborts (InstanceTooLarge) past this many nodes.
  std::size_t exhaustive_max_nodes = kExhaustiveDefaultMaxNodes;

  /// Availability-constrained objective: when set, every returned scheme
  /// must reach A_k = 1 - Π_{i∈R_k}(1 - a_i) >= target for every object.
  /// Heuristic solvers finish with a greedy repair pass
  /// (core::repair_availability); "exhaustive" enforces the constraint
  /// inside the search and stays exact; the tree/const-clients oracles
  /// refuse (their decoupled optimality argument does not survive the
  /// extra constraint). Infeasible targets throw std::runtime_error.
  std::optional<core::AvailabilityConstraint> availability{};

  /// Consumed by "dgra" (src/dist/), which registers itself via
  /// dist::register_dist_solvers(); same layering story as `online`.
  DistSolveOptions dist{};

  /// External RNG stream override. When set, the solver draws from this
  /// stream (advancing it exactly as the underlying free function would)
  /// and `common.seed` is ignored — the escape hatch for callers that keep
  /// long-lived deterministic streams (the simulation monitor, the fuzzer).
  util::Rng* rng = nullptr;
};

/// Where a solve runs — the API seam that lets the same registry adapters
/// be driven centrally (CLI, monitor, fuzzer) or per-DES-node (src/dist/)
/// without parallel code paths. An in-process caller leaves it default; a
/// decentralized driver fills it per site:
///
///   clock     simulated-time source (DES clock); unset = wall clock only
///   locality  the site whose local view this solve represents; unset =
///             global (centralized) scope
///
/// Adapters never *depend* on the hooks for correctness — a solve with a
/// context produces the same scheme as one without (the decentralized
/// equivalence argument in DESIGN.md §15 rests on this). They annotate
/// `details` ("locality", "sim_time") so reports distinguish the scopes.
/// Type-erased (std::function hooks) so algo stays below sim in the module
/// layering.
struct ExecutionContext {
  std::function<double()> clock{};
  std::optional<core::SiteId> locality{};

  /// True when this solve represents one site's local view.
  [[nodiscard]] bool local() const noexcept { return locality.has_value(); }
  /// Simulated time when a clock is wired, 0.0 otherwise.
  [[nodiscard]] double now() const { return clock ? clock() : 0.0; }
};

/// Adaptive-solve context (consumed by "agra"): what the network currently
/// runs and what drifted. Static solvers ignore it.
struct AdaptContext {
  /// The network's current M·N replication chromosome (transcription's
  /// elite slot). nullptr = the primary-only allocation.
  const ga::Chromosome* current_scheme = nullptr;
  /// Retained population of the last static GRA run (may be empty; one is
  /// synthesized from the current scheme).
  std::span<const ga::Chromosome> retained_population{};
  /// The objects whose access pattern shifted past the threshold.
  std::span<const core::ObjectId> changed_objects{};
};

struct SolveRequest {
  const core::Problem& problem;
  SolverOptions options{};
  /// Absent = solve from scratch ("agra" then re-optimizes every object
  /// starting from the primary-only allocation).
  std::optional<AdaptContext> adapt{};
  /// Where the solve runs (central vs per-DES-node); default = in-process
  /// central caller, which preserves the pre-redesign behavior.
  ExecutionContext context{};
};

struct SolveResponse {
  /// The uniform result core every solver fills: scheme, cost,
  /// savings_percent, extra_replicas, elapsed_seconds, iterations.
  AlgorithmResult result;
  /// Final population of population-based solvers (GRA, AGRA) — retained by
  /// adaptive callers for later transcription; empty for the rest.
  std::vector<Individual> population;
  /// Flat JSON object of algorithm-specific extras (evaluation counts,
  /// repair totals, …), ready to merge into an obs::RunReport result row.
  obs::Json details = obs::Json::object();
};

/// Interface every registered algorithm implements. Implementations are
/// stateless (all state lives in the request), so one instance may be used
/// from several threads at once.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry key, e.g. "gra". Stable across releases.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Solves `request.problem`. Throws std::invalid_argument on config or
  /// request errors, audit::AuditFailure when options.common.audit is set
  /// and the final scheme violates an invariant.
  [[nodiscard]] virtual SolveResponse solve(const SolveRequest& request) const = 0;
};

/// Name-keyed solver collection. Not synchronized: register at startup,
/// before concurrent lookups begin (the built-ins are registered by
/// solver_registry() itself).
class SolverRegistry {
 public:
  /// Registers `solver` under solver->name(), replacing any previous
  /// holder of that name.
  void add(std::unique_ptr<Solver> solver);

  /// nullptr when no solver has that name.
  [[nodiscard]] const Solver* find(std::string_view name) const noexcept;

  /// Throws std::invalid_argument (listing the registered names) when
  /// absent.
  [[nodiscard]] const Solver& at(std::string_view name) const;

  /// Registered names in sorted order.
  [[nodiscard]] std::vector<std::string_view> names() const;

 private:
  std::vector<std::unique_ptr<Solver>> solvers_;
};

/// The process-wide registry, with every built-in algorithm registered on
/// first use.
[[nodiscard]] SolverRegistry& solver_registry();

}  // namespace drep::algo
