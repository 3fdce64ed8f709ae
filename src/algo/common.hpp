#pragma once
// Options shared by every replication solver.
//
// Each algorithm config (SraConfig, GraConfig, AgraConfig, AdrConfig …)
// embeds a CommonOptions so that the uniform knobs — seed, threads, audit,
// time limit — spell the same everywhere and the drep::Solver registry can
// forward them without per-algorithm special cases. Beside it sits
// for_each_task, the one place that decides from `threads` whether a
// solver's parallel section runs serially or on the shared pool.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"

namespace drep::algo {

/// Thrown by the exact solvers (exhaustive, constclients) when an instance
/// exceeds their enumeration budget: the caller asked for a provable optimum
/// the solver cannot deliver in bounded time, which is a request error, not
/// a runtime failure. The CLI maps it to a usage error (exit 2).
class InstanceTooLarge : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct CommonOptions {
  /// Seed for the solver's RNG stream. Consulted only by the Solver-registry
  /// path (algo/solver.hpp); the legacy free functions take an explicit
  /// util::Rng and ignore this field.
  std::uint64_t seed = 1;

  /// 1 = run strictly serially (no pool hand-off at all); any other value =
  /// run the parallel sections on the lanes of the shared pool, whose size
  /// util::ThreadPool::configure_shared sets (the CLI's --threads calls
  /// it). Results never depend on this value: every parallel section is
  /// scheduled so that the output is a pure function of (problem, config,
  /// seed). See for_each_task.
  std::size_t threads = 0;

  /// Run the always-built audit validators (audit/invariants.hpp) on the
  /// final scheme and throw audit::AuditFailure on any violation. Cheaper
  /// and coarser than the compile-time DREP_AUDIT=ON hooks, which audit
  /// mid-run state as well; both can be on at once.
  bool audit = false;

  /// Wall-clock budget in seconds; 0 = unlimited. Once it is exceeded GRA
  /// stops at the next generation (island GRA: epoch) boundary and AGRA
  /// starts no further micro-GA. A nonzero limit makes results
  /// timing-dependent, so leave it 0 whenever determinism matters.
  double time_limit_seconds = 0.0;

  void validate() const {
    if (time_limit_seconds < 0.0)
      throw std::invalid_argument(
          "CommonOptions: time_limit_seconds must be >= 0");
  }
};

/// Every solver's one fork-join loop: runs body(lane, i) once for every i
/// in [0, count). `common.threads == 1` runs the tasks on the calling
/// thread, in index order, on lane 0, without touching the shared pool;
/// any other value hands them to util::ThreadPool::shared().parallel_for,
/// whose min(count, workers) lanes claim indices from one counter. A task's
/// exception reaches the caller: serially at once, on the pool once every
/// lane has finished.
inline void for_each_task(
    const CommonOptions& common, std::size_t count,
    const std::function<void(std::size_t lane, std::size_t i)>& body) {
  if (common.threads == 1) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  util::ThreadPool::shared().parallel_for(0, count, body);
}

/// Where the online engine's hot/warm/cold classification comes from
/// (DESIGN.md Section 12). kEwma is the deployable predictor; the oracle
/// and adversarial sources exist to measure the consistency-robustness
/// envelope of the prediction-blended thresholds.
enum class PredictionSource : std::uint8_t {
  /// The engine's own EWMA rate estimates over sliding trace windows.
  kEwma = 0,
  /// Perfect predictions: each window classified from the *next* window's
  /// true per-object request counts.
  kOracle = 1,
  /// Worst-case predictions: the oracle's classes with hot and cold
  /// swapped, so the blend is confidently wrong every window.
  kAdversarial = 2,
};

/// Knobs of the `--algo=online` engine (src/online/). Lives here — below
/// the online module — so SolverOptions keeps the uniform options.<algo>
/// field pattern without algo depending on online.
struct OnlineOptions {
  /// Requests per predictor window (EWMA fold + reclassification cadence;
  /// also the referee's retune-window length).
  std::size_t window = 128;
  /// EWMA weight of the newest window, in (0, 1].
  double alpha = 0.5;
  /// rate > hot_factor × mean rate  =>  hot.
  double hot_factor = 2.0;
  /// rate < cold_factor × mean rate  =>  cold.
  double cold_factor = 0.5;
  /// λ of the ski-rental replicate rule: replicate once the accumulated
  /// remote-read penalty reaches λ × the current fetch cost.
  double break_even = 1.0;
  /// Eviction analogue: evict once the carried update cost reaches
  /// evict_factor × the re-fetch cost.
  double evict_factor = 1.0;
  /// How far predictions bend the thresholds, in [0, 1]. 0 = pure
  /// ski-rental (predictions ignored); 1 = full trust.
  double trust = 0.5;
  PredictionSource source = PredictionSource::kEwma;
};

/// Knobs of the decentralized solvers (`--algo=dgra`, `adapt
/// --decentralized`; src/dist/). Lives here — below the dist module — for
/// the same reason as OnlineOptions: SolverOptions keeps the uniform
/// options.<algo> field pattern without algo depending upward.
struct DistSolveOptions {
  /// sim::FaultPlan::parse spec applied to the DES the islands run over.
  /// Empty = perfect network (the bit-for-bit equivalence regime).
  std::string faults_spec{};
  /// DesNetwork latency multiplier (simulated latency = cost × this).
  double latency_per_cost = 1.0;
  /// Graceful-degradation ceiling asserted by the convergence audit: under
  /// faults, decentralized cost must stay <= ceiling × centralized cost.
  double cost_ceiling_factor = 1.10;
};

}  // namespace drep::algo
