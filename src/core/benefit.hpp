#pragma once
// Replication benefit values.
//
//  * local_benefit  — Eq. 5, the greedy SRA criterion: per-storage-unit NTC
//    saved by adding a replica, from the candidate site's local view.
//  * insertion_delta / removal_delta — the *exact* global change in D caused
//    by adding/removing one replica (used by the hill-climbing baseline and
//    by the "exact" AGRA repair ablation).
//  * deallocation_estimate — Eq. 6, AGRA's O(M) estimator of how valuable an
//    existing replica is; the smallest value is deallocated first when a
//    transcription overflows a site.

#include <span>
#include <vector>

#include "core/replication.hpp"

namespace drep::core {

/// Eq. 5. With R_k(i) = r_k(i)·o_k·C(i,SN_k(i)) the read NTC a local replica
/// eliminates, and (TW_k - w_k(i))·o_k·C(i,SP_k) the update traffic the new
/// replica starts receiving, the per-storage-unit benefit is
///   B_k(i) = [ R_k(i) - (TW_k - w_k(i))·o_k·C(i,SP_k) ] / o_k.
/// This equals minus the local-view ΔD divided by o_k (see DESIGN.md for the
/// equation-reading rationale). Positive means locally profitable.
/// Returns 0 when site i already holds a replica.
[[nodiscard]] double local_benefit(const ReplicationScheme& scheme, SiteId i,
                                   ObjectId k);

/// Exact ΔD of adding a replica of k at i (negative = improvement),
/// including the read improvements of *other* sites whose nearest replica
/// becomes i. O(|row k|) over the demand row. Returns 0 when the replica
/// already exists.
[[nodiscard]] double insertion_delta(const ReplicationScheme& scheme, SiteId i,
                                     ObjectId k);

/// Exact ΔD of removing the replica of k at i (positive = degradation).
/// O(|row k| + A·|R_k|), A the demand cells whose nearest replica is i: each
/// re-homes to its runner-up, derived from R_k. Throws
/// std::invalid_argument when i is the primary; returns 0 when there is no
/// replica at i.
[[nodiscard]] double removal_delta(const ReplicationScheme& scheme, SiteId i,
                                   ObjectId k);

/// Per-site "local proportional link weight" of Eq. 6:
///   plw(i) = Σ_x C(i,x) / ( Σ_l Σ_x C(l,x) / M ).
/// Computed once per problem (O(M²)) and reused by deallocation_estimate.
[[nodiscard]] std::vector<double> proportional_link_weights(
    const Problem& problem);

/// Eq. 6 — the replica benefit estimation E_k(i) used by AGRA's repair:
///
///          TR_k + w_k(i) - TW_k + r_k(i)·s(i)/o_k
///   E_k(i) = --------------------------------------
///                   plw(i) · |R_k|
///
/// Higher = more worth keeping. `plw` must come from
/// proportional_link_weights on the same problem. |R_k| is taken from the
/// scheme (≥1: the primary always exists).
[[nodiscard]] double deallocation_estimate(const ReplicationScheme& scheme,
                                           std::span<const double> plw,
                                           SiteId i, ObjectId k);

}  // namespace drep::core
