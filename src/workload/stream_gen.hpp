#pragma once
// Streaming sparse-workload generator — instances far beyond what
// workload::generate can materialize (its full demand rows hold M·N cells).
//
// Section 6.1's workload gives EVERY site a nonzero read count for every
// object, so every row is full. The streaming generator instead draws, per
// object, a bounded set of reader/writer sites (the realistic
// access-locality regime the adaptive experiments of Section 7 motivate)
// and stores them as partial rows, so an instance's footprint is
// Θ(M² + N + nnz).
//
// Determinism and purity: object k's spec is drawn from rng.fork(k)-derived
// child streams of the config seed, so it is a pure function of
// (config, k) — objects can be generated in any order, on any thread, or
// re-generated on demand without storing them. The topology comes from
// random points in the unit square (Euclidean per-unit costs, metric by
// construction, O(M²) — a shortest-path closure at M=1000 would cost O(M³)).
//
// Row-shape equivalence: build_sparse_instance(config) stores each object's
// demanding sites as a partial row; materialize_problem(config) is the same
// instance with every row full (build_sparse_instance(config).materialize()).
// The differential suites run one kernel on both and demand identical bits.

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace drep::workload {

struct StreamConfig {
  std::size_t sites = 100;
  std::size_t objects = 100'000;
  std::uint64_t seed = 0;

  /// Reader/writer site counts per object, drawn uniformly from these
  /// inclusive ranges (clamped to the site count). Writers are drawn from
  /// the readers-plus-primary pool first, spilling to fresh sites when the
  /// pool is exhausted — writes exhibit the same locality reads do.
  std::uint64_t readers_lo = 2;
  std::uint64_t readers_hi = 8;
  std::uint64_t writers_lo = 0;
  std::uint64_t writers_hi = 2;

  /// Request count ranges per demanding (site, object) cell.
  std::uint64_t reads_lo = 1;
  std::uint64_t reads_hi = 40;
  std::uint64_t writes_lo = 1;
  std::uint64_t writes_hi = 4;

  /// Object size range (paper mean 35 at the defaults).
  std::uint64_t object_size_lo = 10;
  std::uint64_t object_size_hi = 60;

  /// Per-site replica headroom BEYOND the site's pinned primary mass, as a
  /// fraction of the expected total object mass divided evenly over sites.
  /// Capacity(i) = pinned(i) + fraction · mean_size · N / M, so every
  /// instance is feasible and every site has room for roughly
  /// fraction · N / M extra replicas.
  double capacity_fraction = 0.15;

  /// Scales Euclidean link costs (unit square distances are < sqrt(2)).
  double cost_scale = 10.0;

  /// Throws std::invalid_argument when a field is out of range.
  void validate() const;
};

/// The fully drawn spec of one object: size, primary, and its demand row
/// (ascending site id). A pure function of (config, k).
struct ObjectSpec {
  core::ObjectId id = 0;
  double size = 0.0;
  core::SiteId primary = 0;
  std::vector<core::DemandEntry> demands;
};

/// Deterministic object-spec stream over a fixed topology. Construction
/// draws only the O(M²) topology and capacities base; objects stream.
class StreamGen {
 public:
  explicit StreamGen(const StreamConfig& config);

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }
  [[nodiscard]] const net::CostMatrix& costs() const noexcept { return costs_; }

  /// Object k's spec; pure, any order, thread-safe.
  [[nodiscard]] ObjectSpec object(core::ObjectId k) const;

  /// Site capacities: pinned primary mass plus the base headroom share.
  /// Streams every object once (ascending, so the pinned sums match the
  /// instance builders bit-for-bit).
  [[nodiscard]] std::vector<double> capacities() const;

 private:
  StreamConfig config_;
  net::CostMatrix costs_;
  util::Rng object_root_;  // fork(k) yields object k's stream
  double base_capacity_ = 0.0;
};

/// Builds the partial-row instance by streaming every object once: memory
/// Θ(M² + N + nnz). The result passes Problem::validate() (checked here,
/// O(M³) for the metric test).
[[nodiscard]] core::Problem build_sparse_instance(const StreamConfig& config);

/// The same instance with every row full (M·N cells; differential-test
/// scale only). Equal to build_sparse_instance(config).materialize().
[[nodiscard]] core::Problem materialize_problem(const StreamConfig& config);

}  // namespace drep::workload
