#pragma once
// Decentralized adaptive retune over the DES (DESIGN.md Section 15).
//
// The paper's AGRA assumes a monitor that owns the whole demand matrix; in
// the target deployment each site only observes its own traffic. Here every
// site runs a local drift detector — its own online::Predictor EWMA window
// over the site-local subsequence of the request trace — and a site whose
// observed per-object rates deviate from the baseline expectation beyond
// the trigger threshold runs a *local micro-AGRA retune*: the registry
// "agra" solver over its local view of the problem (baseline rows for every
// other site, its own observed row for itself), called from the site's DES
// node.
//
// The retuned columns of the changed objects then disseminate as
// kDriftColumnUpdate envelopes to every site; each receiver applies only
// its own bit (replica gains fetch the object from the nearest current
// holder before acking; drops and no-ops ack immediately), and conflicts
// between concurrent retuners resolve deterministically to the lowest
// retuner site id regardless of arrival order. With a FaultPlan, each
// lane's current update is a sim::ReliableChannel exchange, admitted exactly
// once in any arrival order, and each replica fetch runs on the node's
// sim::FetchLeg (DESIGN.md Section 8, "ReliableChannel" and "Fetch leg").
//
// run_decentralized_adapt assembles the final scheme from the per-site
// *actual* bits and repairs any capacity overflow by evicting accepted
// gains (descending object id) — there is no apply-time veto, mirroring the
// retune protocol's assembly-time policy.
//
// Equivalence: when exactly one site drifted, its local view *is* the
// global observed problem, so its micro-AGRA input (problem, scheme,
// retained population, changed set, seed) is bit-identical to the central
// monitor's — the single-drift conformance tests pin the resulting scheme
// to the centralized `agra` registry solver bit for bit.

#include <cstddef>
#include <optional>
#include <vector>

#include "algo/agra.hpp"
#include "audit/invariants.hpp"
#include "core/problem.hpp"
#include "ga/chromosome.hpp"
#include "online/predictor.hpp"
#include "sim/des.hpp"
#include "sim/fault_plan.hpp"

namespace drep::dist {

struct DadaptOptions {
  /// Micro-AGRA config each drifted site retunes with.
  algo::AgraConfig agra{};
  /// The network-wide chromosome currently realized (M·N, site-major).
  ga::Chromosome current_scheme;
  /// Retained population of the last nightly GRA (disseminated with the
  /// nightly scheme, so every site holds it); may be empty.
  std::vector<ga::Chromosome> retained_population;
  /// Per-site EWMA drift detector (window, alpha); the trigger fires when
  /// some object's EWMA rate deviates from the baseline per-window
  /// expectation by at least drift_threshold_percent.
  online::PredictorConfig predictor{};
  double drift_threshold_percent = 100.0;
  /// Changed-object rule once triggered: same total-deviation threshold the
  /// central monitor uses, evaluated on the site's local view.
  double change_threshold_percent = 100.0;
  /// Seed of the micro-AGRA RNG stream (every retuner uses the same seed on
  /// its own local problem — what makes single-drift runs bit-comparable to
  /// the centralized solver).
  std::uint64_t seed = 1;
  /// Seed of the observed-trace shuffle the per-site predictors consume.
  std::uint64_t trace_seed = 1;
  double latency_per_cost = 1.0;
  std::optional<sim::FaultPlan> faults{};
  sim::RetryPolicy retry{};

  void validate() const;
};

struct DadaptResult {
  /// The assembled final scheme, evaluated against the observed problem.
  algo::AlgorithmResult result;
  /// Sites whose local EWMA trigger fired (ascending).
  std::vector<core::SiteId> drifted_sites{};
  /// Union of the drifted sites' changed-object sets (ascending).
  std::vector<core::ObjectId> changed_objects{};
  /// Drifted sites that actually ran a micro-AGRA (non-empty changed set).
  std::size_t retunes_run = 0;
  /// Column updates first-transmitted / applied at a receiver / ignored as
  /// conflict losers or stale duplicates / failed (fetch gave up).
  std::size_t updates_sent = 0;
  std::size_t updates_applied = 0;
  std::size_t updates_ignored = 0;
  std::size_t directives_failed = 0;
  /// Accepted gains evicted by the assembly-time capacity repair.
  std::size_t directives_rejected = 0;
  sim::TrafficStats traffic{};
  sim::RetryStats retry_stats{};
  double round_time = 0.0;
  /// Per-site accepted-envelope logs (index = site id): the column updates
  /// and acks each site's channel admitted through accept(); each one feeds
  /// audit::check_envelope_log. Fetches are not logged: the fetch leg
  /// removes duplicates by exchange key, not through accept().
  std::vector<std::vector<audit::EnvelopeRecord>> envelope_logs{};
};

/// Runs the decentralized adaptive round: offline per-site drift detection
/// over the observed trace, then the DES dissemination round among the
/// triggered retuners. `baseline` is the problem the nightly scheme was
/// optimized for; `observed` carries the drifted request matrices. Both
/// must share topology, sizes, primaries, and capacities.
[[nodiscard]] DadaptResult run_decentralized_adapt(
    const core::Problem& baseline, const core::Problem& observed,
    const DadaptOptions& options);

}  // namespace drep::dist
