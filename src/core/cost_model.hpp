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

/// Allocation-free NTC evaluation of raw replication matrices — the genetic
/// algorithms evaluate thousands of chromosomes per run and cannot afford to
/// build a ReplicationScheme (nearest-index and all) for each.
///
/// The evaluator snapshots transposed request tables and per-object
/// invariants at construction; call refresh() after mutating the problem's
/// read/write patterns. Methods reuse internal scratch, so an instance is
/// NOT thread-safe: create one evaluator per thread.
class CostEvaluator {
 public:
  explicit CostEvaluator(const Problem& problem);

  [[nodiscard]] const Problem& problem() const noexcept { return *problem_; }

  /// Re-snapshots request patterns after the problem changed.
  void refresh();

  /// D of a row-major M×N boolean matrix (primary bits are assumed set; a
  /// zero primary bit is treated as set, matching ReplicationScheme).
  [[nodiscard]] double total_cost(std::span<const std::uint8_t> matrix);

  /// V_k given the replica *site mask* (length M) for object k alone.
  [[nodiscard]] double object_cost(ObjectId k,
                                   std::span<const std::uint8_t> site_mask);

  /// D_prime / V_prime from the snapshot (O(1)).
  [[nodiscard]] double primary_only_cost() const noexcept { return d_prime_; }
  [[nodiscard]] double object_primary_only_cost(ObjectId k) const {
    return v_prime_.at(k);
  }

  /// Fitness f = (D_prime - D)/D_prime of a matrix, not clamped.
  [[nodiscard]] double fitness(std::span<const std::uint8_t> matrix);

  /// V_k given an explicit replica list. The list must contain SP_k exactly
  /// once; its order fixes the floating-point summation order, so callers
  /// that need bit-identical results with total_cost must keep it sorted by
  /// site id (total_cost builds its lists in ascending site order).
  [[nodiscard]] double object_cost_with_replicas(
      ObjectId k, std::span<const SiteId> replicas);

 private:
  const Problem* problem_;
  // Nonzero read demands in CSR layout: object k's readers live at
  // [read_offsets_[k], read_offsets_[k+1]) of read_sites_/read_values_,
  // ascending by site id. Zero-read sites contribute exactly +0.0 to the
  // read sum, so skipping them is bit-identical to the dense loop while the
  // kernel scales in nnz(r)·|R_k| instead of M·|R_k|.
  std::vector<std::size_t> read_offsets_;  // length N+1
  std::vector<SiteId> read_sites_;
  std::vector<double> read_values_;
  std::vector<double> writes_t_;  // [object][site]
  std::vector<double> base_write_;  // Σ_i w_k(i)·C(i,SP_k), per object
  std::vector<double> v_prime_;
  double d_prime_ = 0.0;
  std::vector<const double*> row_ptrs_;  // scratch, replica cost rows
  std::vector<SiteId> replica_buf_;      // scratch
};

/// Incremental (delta) NTC evaluation for the GA hot path.
///
/// A bit flip or gene exchange perturbs only a handful of objects, yet a
/// full re-evaluation pays O(Σ_k (|R_k|+1)·M) every time. DeltaEvaluator
/// adopts a baseline M×N matrix (rebase()) and caches, per object, the
/// sorted replica list R_k and the object cost V_k; apply_flip() then
/// re-derives a single object in O((|R_k|+1)·M + N) and apply_gene_exchange
/// only the objects whose bits actually changed.
///
/// Exactness guarantee: replica lists are kept sorted by site id, each V_k
/// is recomputed with the same kernel the full evaluation uses, and the
/// total is re-summed over the cached V_k in object order — so after any
/// sequence of applied operations total() is bit-for-bit identical to a
/// fresh CostEvaluator::total_cost of the same matrix (enforced by
/// tests/core/delta_eval_test.cpp).
///
/// The stateless full_cost()/delta_cost() pair serves population evaluation:
/// a chromosome that differs from an evaluated parent in a known object set
/// is re-evaluated object-by-object against the parent's cached V_k vector
/// without rebasing. Methods reuse internal scratch, so an instance is NOT
/// thread-safe: create one per worker.
class DeltaEvaluator {
 public:
  explicit DeltaEvaluator(const Problem& problem);

  [[nodiscard]] const Problem& problem() const noexcept {
    return eval_.problem();
  }

  /// Re-snapshots request patterns after the problem changed and, when a
  /// baseline is held, recomputes every cached V_k (a full re-evaluation —
  /// required before any further delta operation).
  void refresh();

  /// Adopts `matrix` (row-major M×N; primary bits forced to 1) as the new
  /// baseline with one full evaluation. Returns the baseline total.
  double rebase(std::span<const std::uint8_t> matrix);
  [[nodiscard]] bool has_baseline() const noexcept { return !v_.empty(); }

  /// D_prime / V_prime from the underlying snapshot (O(1)).
  [[nodiscard]] double primary_only_cost() const noexcept {
    return eval_.primary_only_cost();
  }
  [[nodiscard]] double object_primary_only_cost(ObjectId k) const {
    return eval_.object_primary_only_cost(k);
  }

  /// Current baseline total / fitness / per-object cost (cached, O(1)).
  [[nodiscard]] double total() const;
  [[nodiscard]] double fitness() const;
  [[nodiscard]] double object_cost(ObjectId k) const { return v_.at(k); }
  [[nodiscard]] bool has_replica(SiteId i, ObjectId k) const;
  /// The baseline matrix (row-major M×N, primary bits set).
  [[nodiscard]] std::span<const std::uint8_t> matrix() const noexcept {
    return matrix_;
  }

  /// Total after flipping bit (site, k), without changing the baseline.
  /// Computed as total - V_k + V_k'; may differ from a subsequent
  /// apply_flip in the last few ulps. O((|R_k|+1)·M).
  [[nodiscard]] double peek_flip(SiteId site, ObjectId k);
  /// Flips bit (site, k) in the baseline and returns the new total.
  /// Throws std::invalid_argument when the flip would drop a primary copy.
  double apply_flip(SiteId site, ObjectId k);
  /// Replaces the baseline's gene (row) `site` with `row` (length N;
  /// primary bits forced to stay 1) and returns the new total. Only the
  /// objects whose bit changed are re-evaluated.
  double apply_gene_exchange(SiteId site, std::span<const std::uint8_t> row);

  /// Stateless full evaluation: D of `matrix`, with V_k written to
  /// `object_costs` (length N). Independent of the baseline.
  double full_cost(std::span<const std::uint8_t> matrix,
                   std::span<double> object_costs);
  /// Stateless delta evaluation: D of `matrix`, assuming `object_costs`
  /// holds correct V_k values for every object NOT listed in `changed`
  /// (duplicates allowed). Re-derives the changed objects' V_k in place and
  /// returns the re-summed total — bit-identical to full_cost of the same
  /// matrix. O(|changed|·(|R_k|+1)·M + N).
  double delta_cost(std::span<const std::uint8_t> matrix,
                    std::span<const ObjectId> changed,
                    std::span<double> object_costs);

  /// Evaluation-work accounting: single-object kernel invocations since
  /// construction (a full evaluation counts N). full_equivalents() converts
  /// to whole-matrix evaluation units for honest `evaluations` reporting.
  [[nodiscard]] std::size_t objects_recomputed() const noexcept {
    return objects_recomputed_;
  }
  [[nodiscard]] double full_equivalents() const noexcept;

 private:
  /// Recomputes V_k of `k` from column k of `matrix` (scratch replica list
  /// rebuilt in ascending site order).
  double object_cost_in_matrix(ObjectId k,
                               std::span<const std::uint8_t> matrix);
  [[nodiscard]] double sum_object_costs(std::span<const double> v) const;

  CostEvaluator eval_;
  std::vector<std::uint8_t> matrix_;           // baseline, row-major M×N
  std::vector<std::vector<SiteId>> replicas_;  // per object, ascending
  std::vector<double> v_;                      // cached V_k
  double total_ = 0.0;
  std::vector<SiteId> scratch_replicas_;
  std::size_t objects_recomputed_ = 0;
};

}  // namespace drep::core
