#include "serve/audit.hpp"

#include <sstream>
#include <string>
#include <type_traits>

namespace drep::audit {

namespace {

using serve::SchemeSnapshot;

void add(Violations& violations, const std::string& invariant,
         const std::string& detail) {
  violations.push_back({invariant, detail});
}

std::string at_cell(std::size_t i, std::size_t k) {
  std::ostringstream out;
  out << "(site " << i << ", object " << k << ")";
  return out.str();
}

/// Records a violation when expected != found. `where` is a string or a
/// callable returning one; a callable runs only on a mismatch, so the
/// per-cell checks of a clean snapshot format nothing.
template <typename T, typename Where>
void expect_eq(Violations& violations, const char* invariant,
               const Where& where, T expected, T found) {
  if (expected == found) return;
  std::ostringstream out;
  if constexpr (std::is_invocable_v<const Where&>)
    out << where();
  else
    out << where;
  out << ": expected " << expected << ", found " << found;
  add(violations, invariant, out.str());
}

}  // namespace

Violations check_snapshot_coherence(const SchemeSnapshot& snapshot) {
  Violations violations;
  const std::size_t cells = snapshot.demand_cells();
  // Shape: every routing array covers exactly the demand cells. The
  // accessors are bounds-checked, so probing the last entry verifies length.
  if (snapshot.objects() > 0) {
    const auto last_object =
        static_cast<core::ObjectId>(snapshot.objects() - 1);
    try {
      if (cells > 0) {
        (void)snapshot.nearest_cost_at(cells - 1);
        (void)snapshot.primary_cost_at(cells - 1);
        (void)snapshot.demand_site(cells - 1);
      }
      expect_eq(violations, "snapshot.shape", "demand_end(last object)",
                cells, snapshot.demand_end(last_object));
      if (snapshot.full_rows())
        expect_eq(violations, "snapshot.shape", "full-row cell count",
                  snapshot.sites() * snapshot.objects(), cells);
      (void)snapshot.primary(last_object);
      (void)snapshot.write_surcharge(last_object);
    } catch (const std::out_of_range&) {
      add(violations, "snapshot.shape",
          "routing arrays shorter than the demand cell count");
    }
  }
  const std::uint64_t recomputed = snapshot.compute_checksum();
  if (recomputed != snapshot.checksum()) {
    std::ostringstream out;
    out << "stamped checksum " << snapshot.checksum()
        << " != recomputed " << recomputed << " (generation "
        << snapshot.generation() << ")";
    add(violations, "snapshot.checksum", out.str());
  }
  return violations;
}

Violations check_snapshot_coherence(const SchemeSnapshot& snapshot,
                                    const core::ReplicationScheme& scheme) {
  Violations violations = check_snapshot_coherence(snapshot);
  const core::Problem& problem = scheme.problem();
  expect_eq(violations, "snapshot.shape", "sites", problem.sites(),
            snapshot.sites());
  expect_eq(violations, "snapshot.shape", "objects", problem.objects(),
            snapshot.objects());
  expect_eq(violations, "snapshot.shape", "demand cells",
            problem.demand_cells(), snapshot.demand_cells());
  if (snapshot.sites() != problem.sites() ||
      snapshot.objects() != problem.objects() ||
      snapshot.demand_cells() != problem.demand_cells())
    return violations;
  expect_eq(violations, "snapshot.replicas", "total_replicas",
            scheme.total_replicas(), snapshot.total_replicas());
  for (core::ObjectId k = 0; k < problem.objects(); ++k) {
    const core::SiteId sp = problem.primary(k);
    expect_eq(violations, "snapshot.primary",
              [k] { return "primary of object " + std::to_string(k); }, sp,
              snapshot.primary(k));
    double surcharge = 0.0;
    for (const core::SiteId r : scheme.replicas(k))
      surcharge += problem.cost(sp, r);
    expect_eq(violations, "snapshot.write_surcharge",
              [k] { return "W of object " + std::to_string(k); }, surcharge,
              snapshot.write_surcharge(k));
    expect_eq(violations, "snapshot.shape",
              [k] { return "demand_begin of object " + std::to_string(k); },
              problem.demand_begin(k), snapshot.demand_begin(k));
    const auto sites = problem.demand_sites(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      const std::size_t z = problem.demand_begin(k) + j;
      const core::SiteId i = sites[j];
      expect_eq(violations, "snapshot.shape",
                [&] { return "site of " + at_cell(i, k); }, i,
                snapshot.demand_site(z));
      expect_eq(violations, "snapshot.nearest",
                [&] { return "nearest " + at_cell(i, k); },
                scheme.nearest_site_at(z), snapshot.nearest_at(z));
      expect_eq(violations, "snapshot.nearest",
                [&] { return "nearest cost " + at_cell(i, k); },
                scheme.nearest_cost_at(z), snapshot.nearest_cost_at(z));
      expect_eq(violations, "snapshot.primary_cost",
                [&] { return "primary cost " + at_cell(i, k); },
                problem.cost(i, sp), snapshot.primary_cost_at(z));
    }
  }
  return violations;
}

}  // namespace drep::audit
