#pragma once
// Message-level realization of the monitor's control loop (Section 5):
// "Each site sends ... the previous day's locally observed R/W patterns to
// the monitor. After accumulating all the patterns, the monitor site
// defines new replication schemes ... realized through object migration and
// deallocation."
//
// run_retune_round drives one such round over the discrete-event network:
//
//   1. every site ships its observed pattern rows to the monitor site
//      (control messages — the paper treats their cost as negligible);
//   2. the monitor reacts (AGRA via the Monitor object, or a full GRA when
//      `nightly`), producing a new network-wide scheme;
//   3. the scheme delta is disseminated: each site gaining a replica
//      receives a directive, fetches the object from the nearest previous
//      holder (a real data transfer), and acks; deallocations are local.
//
// The report prices what the paper's Fig. 4 leaves out: the message count
// and migration NTC of actually *rolling out* an adaptation, plus how long
// the round takes in network time units.
//
// With a FaultPlan armed the round survives an imperfect network; reports
// and directives are sim::ReliableChannel exchanges and migrations run on
// each endpoint's sim::FetchLeg (DESIGN.md Section 8, "ReliableChannel" and
// "Fetch leg"):
//   * stats reports are acked by the monitor; after the channel's
//     collection deadline the monitor proceeds with whatever arrived,
//     counting `reports_missing`;
//   * directives are deduplicated at the site (a completed directive is
//     re-acked, not re-executed); a directive that exhausts its retries —
//     its site presumably crashed — counts as `directives_failed`;
//   * a migration fetch falls back from the designated holder to the
//     object's primary when the holder stops answering.
// The monitor site itself is assumed to stay up (it is the paper's always-on
// coordinator); a plan that crashes it is rejected. `migration_traffic`
// remains the *analytic* delta cost of the adopted scheme — under faults the
// measured `traffic.data_traffic` can exceed it (retransmitted fetches) or
// fall short (failed directives).

#include <optional>

#include "sim/des.hpp"
#include "sim/monitor.hpp"

namespace drep::sim {

struct RetuneReport {
  /// Stats reports + directives + acks (control), object fetches (data).
  TrafficStats traffic;
  /// Objects the monitor re-tuned (0 = the round was a no-op).
  std::size_t objects_adapted = 0;
  /// Replicas added / dropped by the rollout.
  std::size_t replicas_added = 0;
  std::size_t replicas_dropped = 0;
  /// NTC of the object migrations (equals core::migration_cost of the
  /// schemes involved).
  double migration_traffic = 0.0;
  /// Network time from the first stats report to the last ack.
  SimTime round_time = 0.0;
  /// Retry-layer counters (all zero on a perfect network).
  RetryStats retry_stats;
  /// Sites whose stats report never arrived before the collection deadline.
  std::size_t reports_missing = 0;
  /// Directives (or the monitor's own migrations) abandoned after
  /// exhausting their retries — those sites keep their stale replica set.
  std::size_t directives_failed = 0;
};

struct RetuneOptions {
  net::SiteId monitor_site = 0;
  /// True = full GRA re-optimization; false = threshold-triggered AGRA.
  bool nightly = false;
  double latency_per_cost = 1.0;
  /// Fault injection; nullopt = perfect network (no acks or retry timers,
  /// byte-identical traffic to the original round).
  std::optional<FaultPlan> faults;
  /// Timeout/backoff parameters; only consulted when `faults` is set.
  RetryPolicy retry;
};

/// Runs one collection/adaptation/rollout round. `observed` carries the
/// newly observed patterns; `monitor` is updated in place (adopts the new
/// scheme and baseline). When `nightly` is true the monitor re-optimizes
/// from scratch (GRA) instead of the threshold-triggered AGRA path.
/// Throws std::invalid_argument when monitor_site is out of range.
[[nodiscard]] RetuneReport run_retune_round(const core::Problem& observed,
                                            Monitor& monitor,
                                            net::SiteId monitor_site,
                                            bool nightly, util::Rng& rng,
                                            double latency_per_cost = 1.0);

/// Full-options variant. Throws std::invalid_argument when the monitor site
/// is out of range or the fault plan crashes it.
[[nodiscard]] RetuneReport run_retune_round(const core::Problem& observed,
                                            Monitor& monitor,
                                            const RetuneOptions& options,
                                            util::Rng& rng);

}  // namespace drep::sim
