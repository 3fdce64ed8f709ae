#pragma once
// Snapshot coherence validators for the serving front-end.
//
// Lives in src/serve/ (it needs SchemeSnapshot, which sits above audit in
// the module layering) but in namespace drep::audit with the standard
// Violations interface, so the fuzz pipeline and the audit-armed engine
// aggregate its findings exactly like every other validator.
//
// Two strengths:
//   * check_snapshot_coherence(snapshot) — internal integrity: every
//     frozen array covers the snapshot's shape and the recomputed word-at-
//     a-time checksum (serve::word_hash) equals the stamped one. One pass
//     over the table at memory speed, cheap enough for readers to spot-
//     check pinned snapshots (the reader-vs-swap stress suite does), and
//     the line of defense against a torn or corrupted publish.
//   * check_snapshot_coherence(snapshot, scheme) — fidelity: every frozen
//     entry equals the scheme it claims to be frozen from, bit for bit:
//     the nearest entries of every (site, object) cell under the lex
//     (cost, id) contract, the M×M cost matrix against the problem's,
//     primaries, and write surcharges re-accumulated in ascending replica
//     order. Entries are compared first and a diagnostic is formatted only
//     for one that differs, so a clean audit costs a few comparisons per
//     cell.

#include "audit/invariants.hpp"
#include "serve/snapshot.hpp"

namespace drep::audit {

/// Internal integrity: shape consistency + checksum recompute.
[[nodiscard]] Violations check_snapshot_coherence(
    const serve::SchemeSnapshot& snapshot);

/// Fidelity to the scheme it was frozen from (implies the internal check).
[[nodiscard]] Violations check_snapshot_coherence(
    const serve::SchemeSnapshot& snapshot,
    const core::ReplicationScheme& scheme);

}  // namespace drep::audit
