#pragma once
// The monitor site's control loop (paper Section 5).
//
// A designated monitor collects per-object read/write statistics. At night
// it re-optimizes the whole network with a static algorithm (GRA) and
// realizes the new scheme through migration/deallocation. During the day,
// whenever an object's observed pattern deviates from the night-time
// estimate beyond a threshold, it runs AGRA for the changed objects and
// immediately re-tunes the network. The monitor retains the last GRA
// population because AGRA's transcription evolves it further.

#include <span>
#include <vector>

#include "algo/agra.hpp"
#include "algo/gra.hpp"

namespace drep::sim {

/// Relative deviation of `observed` from `baseline` in percent; a zero
/// baseline with a non-zero observation is an unbounded change.
[[nodiscard]] double deviation_percent(double baseline, double observed);

/// The changed-object rule (paper Section 5: "changes above a threshold
/// value"): objects whose read or write total in `observed` deviates from
/// the per-object baseline totals by at least `threshold_percent`.
[[nodiscard]] std::vector<core::ObjectId> changed_objects(
    std::span<const double> baseline_reads,
    std::span<const double> baseline_writes, const core::Problem& observed,
    double threshold_percent);

struct MonitorConfig {
  /// An object is "changed" when its read or write total deviates from the
  /// baseline by at least this percentage (paper: "changes above a
  /// threshold value"; 100 = doubling/halving triggers).
  double change_threshold_percent = 100.0;
  algo::GraConfig gra{};
  algo::AgraConfig agra{};
};

class Monitor {
 public:
  /// Runs the initial nightly optimization (GRA) on `baseline` and adopts
  /// its scheme. The baseline problem is copied; later snapshots are
  /// compared against its request totals.
  Monitor(const core::Problem& baseline, const MonitorConfig& config,
          util::Rng& rng);

  /// Objects whose read or write totals in `observed` deviate from the
  /// adopted baseline beyond the threshold.
  [[nodiscard]] std::vector<core::ObjectId> detect_changes(
      const core::Problem& observed) const;

  /// Daytime path: detects changes and, if any, runs AGRA (+ mini-GRA per
  /// config) against `observed`, adopting the result and re-baselining the
  /// changed objects. Returns the changed object ids.
  std::vector<core::ObjectId> adapt(const core::Problem& observed,
                                    util::Rng& rng);

  /// Nightly path: full GRA re-optimization against `observed`; adopts the
  /// scheme, population, and new baseline.
  void reoptimize(const core::Problem& observed, util::Rng& rng);

  /// The currently realized network-wide replication chromosome (M·N).
  [[nodiscard]] const ga::Chromosome& current_scheme() const noexcept {
    return current_scheme_;
  }
  /// The retained GA population.
  [[nodiscard]] const std::vector<algo::Individual>& population() const noexcept {
    return population_;
  }
  /// % NTC savings of the current scheme evaluated under `observed`
  /// patterns.
  [[nodiscard]] double current_savings_percent(
      const core::Problem& observed) const;

 private:
  void adopt(const core::Problem& observed, ga::Chromosome scheme,
             std::vector<algo::Individual> population);

  MonitorConfig config_;
  std::vector<double> baseline_reads_;   // per object
  std::vector<double> baseline_writes_;  // per object
  ga::Chromosome current_scheme_;
  std::vector<algo::Individual> population_;
};

}  // namespace drep::sim
