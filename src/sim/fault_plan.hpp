#pragma once
// Deterministic fault injection for the discrete-event simulator.
//
// The paper motivates replication with fault tolerance but never simulates a
// failure. This module covers both halves: the *static* analysis (what a
// scheme can still serve under a given failed-site set — DegradedService /
// evaluate_with_failures below, formerly sim/failures.*, retired in favour of
// this single header) and the *dynamic* half: a FaultPlan is a seeded
// description of site crash/recover windows, per-message link loss,
// and latency spikes that DesNetwork applies at send/delivery time. Every
// decision is drawn from an Rng seeded by the plan, so a (plan, protocol)
// pair fully determines a run — faulty experiments are as repeatable as
// healthy ones.
//
// The protocols built on top deliver through sim::ReliableChannel, which
// pairs the plan with a RetryPolicy: per-message timeouts with bounded
// exponential backoff. Arming the retry machinery is keyed on a plan being
// *present*, not on its rates being non-zero, which is what makes the
// "zero-rate plan replays to exactly the analytic D" equivalence property a
// real statement about the retry layer rather than a tautology.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/replication.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace drep::sim {

/// Site `site` is unreachable (neither sends, receives, nor fires local
/// timers) during [from, until). An open-ended crash uses until = +inf.
struct CrashWindow {
  net::SiteId site = 0;
  double from = 0.0;
  double until = std::numeric_limits<double>::infinity();
};

struct FaultPlan {
  /// Seeds the per-message bernoulli draws (drop, spike). Two runs with the
  /// same plan and workload produce identical fault sequences.
  std::uint64_t seed = 1;
  /// Probability that any inter-site message is lost in transit.
  double drop_probability = 0.0;
  /// Probability that a delivered message's latency is multiplied by
  /// `spike_factor` (transient congestion).
  double spike_probability = 0.0;
  double spike_factor = 3.0;
  std::vector<CrashWindow> crashes;

  /// True when site is inside one of its crash windows at time `at`.
  [[nodiscard]] bool site_down(net::SiteId site, double at) const noexcept;
  /// The distinct sites that are down at time `at`, ascending.
  [[nodiscard]] std::vector<net::SiteId> down_sites(std::size_t sites,
                                                    double at) const;
  /// The distinct sites the plan ever crashes, ascending.
  [[nodiscard]] std::vector<net::SiteId> crashed_sites() const;

  /// Per-site availability over [0, horizon): a_i = 1 - downtime_i/horizon,
  /// with overlapping crash windows merged and open-ended windows clipped to
  /// the horizon. horizon <= 0 auto-derives it as the latest finite window
  /// edge (from or until), at least 1. Feeds
  /// core::AvailabilityConstraint::site_availability.
  [[nodiscard]] std::vector<double> site_availability(
      std::size_t sites, double horizon = 0.0) const;

  /// Throws std::invalid_argument on out-of-range probabilities, a spike
  /// factor < 1, or a crash window with until <= from.
  void validate() const;

  /// Parses a comma-separated spec, e.g.
  ///   "seed=7,drop=0.1,spike=0.05,spikex=4,crash=2@10..500,crash=0@0.."
  /// Keys: seed, drop, spike, spikex, crash=SITE@FROM..UNTIL (UNTIL empty =
  /// forever; crash may repeat). Throws std::invalid_argument on malformed
  /// input.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);
};

/// Bounded exponential backoff for the protocol retry layers: attempt a
/// waits timeout_for(a) = base × backoff^a before retransmitting, for
/// attempts 0..max_retries (so an exchange is tried 1 + max_retries times).
struct RetryPolicy {
  /// 0 = derive from the network: 4 × the worst one-way latency, so a full
  /// round trip plus processing fits inside the first timeout and a
  /// zero-rate plan never retransmits.
  double base_timeout = 0.0;
  double backoff = 2.0;
  std::size_t max_retries = 6;

  [[nodiscard]] double resolve_base(double worst_one_way_latency) const;
  [[nodiscard]] double timeout_for(double base, std::size_t attempt) const;
  /// Upper bound on the time an exchange spends before giving up:
  /// Σ timeout_for(a) over all attempts.
  [[nodiscard]] double give_up_time(double base) const;
};

/// Retry-layer counters shared by the hardened protocols. All zero on a
/// perfect network.
struct RetryStats {
  /// Retransmissions actually sent.
  std::size_t retries = 0;
  /// Timer expirations that found the exchange still pending.
  std::size_t timeouts = 0;
  /// Exchanges abandoned after max_retries.
  std::size_t give_ups = 0;
  /// Duplicate deliveries ignored by sequence/id dedup.
  std::size_t duplicates = 0;

  RetryStats& operator+=(const RetryStats& other) noexcept {
    retries += other.retries;
    timeouts += other.timeouts;
    give_ups += other.give_ups;
    duplicates += other.duplicates;
    return *this;
  }
};

// Static fault-tolerance analysis of replication schemes (absorbed from the
// retired sim/failures.* module). Given a replication scheme and a set of
// failed sites:
//
//   * a read is servable when some surviving site holds a replica (it is
//     served by the nearest survivor, possibly at higher cost);
//   * a write is servable when the object's primary survives (the paper's
//     policy funnels all updates through SP_k);
//   * an object is *lost* when every one of its replicators failed.
//
// Requests originated AT failed sites are excluded (their clients are down
// too). Availability is weighted by the request pattern, so a scheme that
// replicates the hot objects scores higher than raw replica counts suggest.

struct DegradedService {
  /// Fraction of (surviving-site) read requests still servable, weighted by
  /// read counts. 1.0 when nothing of value was lost.
  double read_availability = 1.0;
  /// Fraction of (surviving-site) write requests whose primary survives.
  double write_availability = 1.0;
  /// Objects with no surviving replica at all.
  std::size_t objects_lost = 0;
  /// Read NTC of the servable reads, re-homed to the nearest survivor.
  double degraded_read_cost = 0.0;
  /// Read NTC those same reads had before the failure.
  double healthy_read_cost = 0.0;
};

/// Evaluates the scheme under the given failed-site set. Duplicate entries
/// are ignored; throws std::invalid_argument on out-of-range sites or when
/// every site failed.
[[nodiscard]] DegradedService evaluate_with_failures(
    const core::ReplicationScheme& scheme, std::span<const core::SiteId> failed);

/// Same static analysis, but the failed-site set is whatever the FaultPlan
/// has down at simulated time `at` — the bridge between the DES fault
/// injection (which replays the degradation) and this module (which bounds
/// it analytically). A plan with no crash window covering `at` reports a
/// fully healthy service.
[[nodiscard]] DegradedService evaluate_with_failures(
    const core::ReplicationScheme& scheme, const FaultPlan& plan, double at);

/// Monte-Carlo estimate of expected read availability when `failures`
/// distinct uniformly random sites fail; averaged over `trials` draws.
[[nodiscard]] double expected_read_availability(
    const core::ReplicationScheme& scheme, std::size_t failures,
    std::size_t trials, util::Rng& rng);

}  // namespace drep::sim
