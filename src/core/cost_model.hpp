#pragma once
// The object transfer cost model (paper Section 2.2).
//
// Total network transfer cost (NTC) of a replication matrix X:
//
//   D = Σ_i Σ_k (1-X_ik)·[ r_k(i)·o_k·C(i,SN_k(i)) + w_k(i)·o_k·C(i,SP_k) ]
//              + X_ik·[ Σ_x w_k(x)·o_k·C(i,SP_k) ]                   (Eq. 4)
//
// Eq. 4 charges update traffic to the *receiving* replica; Eqs. 2+3 charge
// the writer for the primary's broadcast. Both bookkeepings yield the same
// total (the broadcast SP->j of one update costs C(SP,j) no matter whose
// ledger it lands on); total_cost_writer_view exists so tests can assert the
// equality. Every quantity is reported in (data units × cost units).

#include <span>

#include "core/replication.hpp"

namespace drep::core {

/// NTC split into its read and write components.
struct CostBreakdown {
  double read_cost = 0.0;
  double write_cost = 0.0;
  [[nodiscard]] double total() const noexcept { return read_cost + write_cost; }
};

/// D for a scheme, using its nearest-replica cache; O(demand cells +
/// Σ_k |R_k|). Absent cells of partial rows contribute the exact +0.0 a
/// stored zero cell would, so both row shapes give the same bits.
[[nodiscard]] double total_cost(const ReplicationScheme& scheme);
[[nodiscard]] CostBreakdown cost_breakdown(const ReplicationScheme& scheme);

/// V_k — the NTC attributable to object k alone (paper Section 5).
[[nodiscard]] double object_cost(const ReplicationScheme& scheme, ObjectId k);

/// D computed with the writer-pays bookkeeping of Eqs. 2+3. Equals
/// total_cost up to floating-point rounding; kept for model validation.
[[nodiscard]] double total_cost_writer_view(const ReplicationScheme& scheme);

/// D_prime — NTC of the primary-copies-only allocation.
[[nodiscard]] double primary_only_cost(const Problem& problem);
/// V_prime for object k — its NTC when only the primary copy exists.
[[nodiscard]] double object_primary_only_cost(const Problem& problem, ObjectId k);

/// (D_prime - D) / D_prime: the paper's solution-quality metric. Returns 0
/// when D_prime is 0 (degenerate no-traffic instance).
[[nodiscard]] double savings_fraction(const Problem& problem, double cost);
[[nodiscard]] double savings_percent(const Problem& problem,
                                     const ReplicationScheme& scheme);

/// One-shot NTC of realizing scheme `to` starting from scheme `from`
/// (Section 5's night-hour "object migration and deallocation"): every
/// newly added replica fetches the object from the nearest site that held
/// it under `from`; deallocations are free. Throws std::invalid_argument
/// when the schemes belong to different Problem instances.
[[nodiscard]] double migration_cost(const ReplicationScheme& from,
                                    const ReplicationScheme& to);

/// The one Eq. 4 kernel over raw replication matrices: GRA scores a
/// chromosome by D (fitness (D' - D)/D'), AGRA's per-object micro-GA by V_k
/// (fitness (V'_k - V_k)/V'_k). The GAs evaluate thousands of chromosomes
/// per run and cannot afford a ReplicationScheme (nearest cache and all) for
/// each.
///
/// The evaluator reads the problem's demand rows on every call and caches
/// only per-object constants: the write base Σ_i w_k(i)·C(i,SP_k), V'_k and
/// D' (O(N)), plus O(M) scratch. Call refresh() after mutating the
/// problem's request patterns, before the next evaluation. Methods reuse
/// the scratch, so an instance is NOT thread-safe: create one per thread.
///
/// Exactness: every entry point lists R_k in ascending site order and runs
/// the same per-object kernel, and every total sums V_k in object order, so
/// total_cost, full_cost and delta_cost of one matrix agree bit for bit
/// (tests/core/delta_eval_test.cpp). Population evaluation keeps a V_k
/// vector per chromosome: full_cost fills it, and delta_cost re-derives only
/// the objects whose column changed since.
class CostEvaluator {
 public:
  explicit CostEvaluator(const Problem& problem);

  [[nodiscard]] const Problem& problem() const noexcept { return *problem_; }

  /// Re-derives the cached per-object constants after the problem changed.
  void refresh();

  /// D of a row-major M×N boolean matrix (primary bits are assumed set; a
  /// zero primary bit is treated as set, matching ReplicationScheme).
  [[nodiscard]] double total_cost(std::span<const std::uint8_t> matrix);

  /// D of `matrix`, with V_k written to `object_costs` (length N).
  double full_cost(std::span<const std::uint8_t> matrix,
                   std::span<double> object_costs);
  /// D of `matrix`, assuming `object_costs` holds the correct V_k of every
  /// object NOT listed in `changed` (duplicates allowed). Re-derives the
  /// changed objects' V_k in place and returns the re-summed total, bit for
  /// bit full_cost of the same matrix. O(Σ_changed (M + |R_k|·|row|) + N).
  double delta_cost(std::span<const std::uint8_t> matrix,
                    std::span<const ObjectId> changed,
                    std::span<double> object_costs);
  /// V_k of column k of a row-major M×N matrix.
  [[nodiscard]] double column_cost(std::span<const std::uint8_t> matrix,
                                   ObjectId k);

  /// V_k given the replica *site mask* (length M) for object k alone.
  [[nodiscard]] double object_cost(ObjectId k,
                                   std::span<const std::uint8_t> site_mask);

  /// V_k given an explicit replica list. The list must contain SP_k exactly
  /// once; its order fixes the floating-point summation order, so callers
  /// that need bit-identical results with total_cost must keep it sorted by
  /// site id (as ReplicationScheme::replicas is).
  [[nodiscard]] double object_cost_with_replicas(
      ObjectId k, std::span<const SiteId> replicas);

  /// D_prime / V_prime from the cached constants (O(1)).
  [[nodiscard]] double primary_only_cost() const noexcept { return d_prime_; }
  [[nodiscard]] double object_primary_only_cost(ObjectId k) const {
    return v_prime_.at(k);
  }

  /// Fitness f = (D_prime - D)/D_prime of a matrix, not clamped.
  [[nodiscard]] double fitness(std::span<const std::uint8_t> matrix);

  /// Evaluation-work accounting: single-object kernel runs since
  /// construction (a full evaluation counts N). Divided by N it gives
  /// whole-matrix evaluation units for honest `evaluations` reporting.
  [[nodiscard]] std::size_t objects_recomputed() const noexcept {
    return objects_recomputed_;
  }

 private:
  /// V_k of the M bits bits[0], bits[stride], ..., the primary counted as
  /// set: column k of a matrix (stride N) or a site mask (stride 1).
  double strided_cost(ObjectId k, const std::uint8_t* bits,
                      std::size_t stride);

  const Problem* problem_;
  std::vector<double> base_write_;  // Σ_i w_k(i)·C(i,SP_k), per object
  std::vector<double> v_prime_;
  double d_prime_ = 0.0;
  std::vector<double> nearest_;      // scratch, C(i, SN_k(i)) per row cell
  std::vector<SiteId> replica_buf_;  // scratch
  std::size_t objects_recomputed_ = 0;
};

}  // namespace drep::core
