#pragma once
// Row-shape differential: one instance stored with partial demand rows
// (workload::build_sparse_instance) and with full rows (Problem::
// materialize) must drive the same kernels to the same bits through any
// identical add/remove history.

#include <string>

#include "audit/invariants.hpp"
#include "core/cost_model.hpp"
#include "core/replication.hpp"

namespace drep::testing {

/// Compares a scheme over partial rows with one over the full rows of the
/// same instance: replica lists, nearest/second at every (site, object)
/// cell (cached where the partial rows store the cell, computed from R_k
/// where they omit it), the used ledgers, and the Eq. 4 breakdown. Empty
/// when the two agree bit for bit.
inline audit::Violations compare_row_shapes(
    const core::ReplicationScheme& partial,
    const core::ReplicationScheme& full) {
  audit::Violations out;
  const core::Problem& p = partial.problem();
  const core::Problem& f = full.problem();
  if (p.sites() != f.sites() || p.objects() != f.objects()) {
    out.push_back({"row_shapes.shape", "instances differ in shape"});
    return out;
  }
  for (core::ObjectId k = 0; k < p.objects(); ++k) {
    if (partial.replicas(k) != full.replicas(k)) {
      out.push_back({"row_shapes.replica_list",
                     "replicas(" + std::to_string(k) + ") differ"});
      continue;
    }
    for (core::SiteId i = 0; i < p.sites(); ++i) {
      if (partial.nearest(i, k) != full.nearest(i, k) ||
          partial.nearest_cost(i, k) != full.nearest_cost(i, k) ||
          partial.second_nearest(i, k) != full.second_nearest(i, k) ||
          partial.second_nearest_cost(i, k) != full.second_nearest_cost(i, k))
        out.push_back({"row_shapes.top2", "cell (" + std::to_string(i) + "," +
                                              std::to_string(k) + ") differs"});
    }
  }
  for (core::SiteId i = 0; i < p.sites(); ++i) {
    if (partial.used(i) != full.used(i))
      out.push_back({"row_shapes.used_ledger",
                     "used(" + std::to_string(i) + ") differs"});
  }
  const core::CostBreakdown a = core::cost_breakdown(partial);
  const core::CostBreakdown b = core::cost_breakdown(full);
  if (a.read_cost != b.read_cost || a.write_cost != b.write_cost)
    out.push_back({"row_shapes.cost", "Eq. 4 breakdowns differ"});
  return out;
}

}  // namespace drep::testing
