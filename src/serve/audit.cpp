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
  // Shape: every array covers its cells. The lookups are bounds-checked,
  // so reading the last entry of each verifies its length.
  if (snapshot.sites() > 0 && snapshot.objects() > 0) {
    const auto last_site = static_cast<core::SiteId>(snapshot.sites() - 1);
    const auto last_object =
        static_cast<core::ObjectId>(snapshot.objects() - 1);
    try {
      (void)snapshot.nearest(last_site, last_object);
      (void)snapshot.nearest_cost(last_site, last_object);
      (void)snapshot.cost(last_site, last_site);
      (void)snapshot.primary(last_object);
      (void)snapshot.write_surcharge(last_object);
    } catch (const std::out_of_range&) {
      add(violations, "snapshot.shape",
          "routing arrays shorter than the snapshot's shape");
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
  const std::size_t sites = problem.sites();
  expect_eq(violations, "snapshot.shape", "sites", sites, snapshot.sites());
  expect_eq(violations, "snapshot.shape", "objects", problem.objects(),
            snapshot.objects());
  expect_eq(violations, "snapshot.shape", "demand cells",
            snapshot.sites() * snapshot.objects(), problem.demand_cells());
  if (snapshot.sites() != sites || snapshot.objects() != problem.objects() ||
      problem.demand_cells() != sites * problem.objects())
    return violations;
  expect_eq(violations, "snapshot.replicas", "total_replicas",
            scheme.total_replicas(), snapshot.total_replicas());
  for (core::SiteId i = 0; i < sites; ++i)
    for (core::SiteId j = 0; j < sites; ++j)
      expect_eq(violations, "snapshot.cost",
                [&] {
                  return "C(" + std::to_string(i) + ", " + std::to_string(j) +
                         ")";
                },
                problem.cost(i, j), snapshot.cost(i, j));
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
    // On full rows the scheme's cache holds cell (i, k) at k·M + i.
    for (core::SiteId i = 0; i < sites; ++i) {
      const std::size_t z = static_cast<std::size_t>(k) * sites + i;
      expect_eq(violations, "snapshot.nearest",
                [&] { return "nearest " + at_cell(i, k); },
                scheme.nearest_site_at(z), snapshot.nearest(i, k));
      expect_eq(violations, "snapshot.nearest",
                [&] { return "nearest cost " + at_cell(i, k); },
                scheme.nearest_cost_at(z), snapshot.nearest_cost(i, k));
    }
  }
  return violations;
}

}  // namespace drep::audit
