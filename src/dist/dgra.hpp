#pragma once
// Decentralized island-model GRA over the DES (DESIGN.md Section 15).
//
// One island per DES node: island i lives at site i of the problem's
// topology, advances its own GraEngine one migration epoch at a time from
// inside event handlers, and ships its elites to island (i+1) mod K as
// sequence-id'd kGaElites envelopes through DesNetwork — subject to the
// FaultPlan's drops, crashes, and rejoins with bounded-retry semantics.
//
// Equivalence contract (the perfect-network conformance proof): the
// per-island operation sequence is exactly what the centralized
// solve_gra_islands driver composes —
//
//   advance(step) -> emigrants(count) -> immigrate(predecessor's same-epoch
//   elites) -> advance ...
//
// Emigrants are const snapshots computed after the island's own advance and
// before it accepts that epoch's immigrants, in both drivers; immigrate
// only mutates the receiving island's state. Cross-island event
// interleaving therefore cannot change any island's trajectory, so on a
// perfect network the decentralized run is bit-for-bit the centralized one
// (same island configs via island_plan_configs, same RNG fork discipline
// via fork_island_rngs). K == 1 replicates the solve_gra direct path (no
// fork, no migration), so `--algo=dgra` at islands=1 equals `--algo=gra`.
//
// Fault semantics (armed only when a FaultPlan is attached, so the perfect
// network exchanges zero extra messages); delivery is the island's
// sim::ReliableChannel (DESIGN.md Section 8, "ReliableChannel"):
//   * every kGaElites is acked; unacked elites retransmit with the same seq
//     and the receiver admits each epoch's elites exactly once, in any
//     arrival order (elites overtaken by the next epoch's still land);
//   * a receiver waiting on its predecessor's epoch-e elites proceeds
//     without them after the channel's deadline (migrations_missed);
//   * elites arriving after their epoch passed — dropped-then-retransmitted
//     or resent by a rejoining island — are still admitted into the
//     population (elites_readmitted), so a crashed island's genetic
//     material re-enters the ring on rejoin;
//   * an island that crashes forever simply stops; the driver merges its
//     partial state.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "algo/gra.hpp"
#include "audit/invariants.hpp"
#include "core/problem.hpp"
#include "ga/chromosome.hpp"
#include "sim/des.hpp"
#include "sim/fault_plan.hpp"
#include "util/rng.hpp"

namespace drep::dist {

struct DgraOptions {
  /// gra.islands = K = the number of DES nodes the run is spread across
  /// (islands live at sites 0..K-1; K must not exceed the problem's sites).
  algo::GraConfig gra{};
  /// DesNetwork latency multiplier.
  double latency_per_cost = 1.0;
  /// Absent = perfect network (the bit-for-bit equivalence regime).
  std::optional<sim::FaultPlan> faults{};
  /// Retransmission policy for unacked elite migrations (faults only).
  sim::RetryPolicy retry{};
  /// Simulated size of one migrating elite, in data units.
  double elite_size_units = 1.0;

  /// Throws std::invalid_argument on an invalid GRA config, a non-positive
  /// latency multiplier, or a non-positive elite size.
  void validate() const;
};

struct DgraResult {
  /// Merged across islands exactly like the centralized island driver:
  /// winner by lowest cost (ties to the lowest island id), populations
  /// concatenated in island order, history entrywise-maxed, evaluation
  /// counts summed.
  algo::GraResult merged;
  sim::TrafficStats traffic{};
  sim::RetryStats retry_stats{};
  /// Epoch barriers completed by the furthest island.
  std::size_t epochs = 0;
  /// Elite batches first-transmitted / applied at their own epoch /
  /// proceeded-without after the deadline / admitted after their epoch
  /// passed (late retransmissions and rejoin resends).
  std::size_t migrations_sent = 0;
  std::size_t migrations_applied = 0;
  std::size_t migrations_missed = 0;
  std::size_t elites_readmitted = 0;
  /// Distinct islands that were down at least once during the run.
  std::size_t islands_crashed = 0;
  /// Simulated time at queue drain.
  double round_time = 0.0;
  /// Accepted (post-dedup) protocol envelopes, in acceptance order; feeds
  /// audit::check_envelope_log.
  std::vector<audit::EnvelopeRecord> envelope_log{};
};

/// FNV-1a over the chromosome's gene bytes — the scheme fingerprint the
/// convergence audit and the conformance tests compare.
[[nodiscard]] std::uint64_t chromosome_hash(const ga::Chromosome& genes);

/// Runs the decentralized island GA over a DesNetwork built on the
/// problem's cost matrix. Draws from `rng` exactly as solve_gra would
/// (K == 1: the caller's stream directly; K > 1: fork_island_rngs), so a
/// centralized run from an identically-seeded stream is the bit-for-bit
/// comparator.
[[nodiscard]] DgraResult run_decentralized_gra(const core::Problem& problem,
                                               const DgraOptions& options,
                                               util::Rng& rng);

}  // namespace drep::dist
