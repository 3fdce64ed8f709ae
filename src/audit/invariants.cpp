#include "audit/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/availability.hpp"
#include "core/benefit.hpp"

namespace drep::audit {

namespace {

using core::ObjectId;
using core::SiteId;

/// Formats doubles with enough digits to distinguish any two distinct
/// values (mismatch reports must not hide a 1-ulp divergence).
std::string num(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

void add(Violations& out, std::string invariant, std::string detail) {
  out.push_back({std::move(invariant), std::move(detail)});
}

}  // namespace

AuditFailure::AuditFailure(const std::string& where, Violations violations)
    : std::runtime_error([&] {
        std::ostringstream message;
        message << "audit failure at " << where << " (" << violations.size()
                << " invariant(s) violated):";
        for (const Violation& v : violations)
          message << "\n  [" << v.invariant << "] " << v.detail;
        return message.str();
      }()),
      violations_(std::move(violations)) {}

void enforce(Violations violations, const std::string& where) {
  if (!violations.empty()) throw AuditFailure(where, std::move(violations));
}

Violations merge(Violations a, Violations b) {
  a.insert(a.end(), std::make_move_iterator(b.begin()),
           std::make_move_iterator(b.end()));
  return a;
}

Violations check_scheme(const core::ReplicationScheme& scheme) {
  Violations out;
  const core::Problem& p = scheme.problem();

  std::size_t total_replicas = 0;
  for (ObjectId k = 0; k < p.objects(); ++k) {
    // Ground truth: the replica list, which must be strictly ascending (the
    // ordering contract that makes iteration history-independent), in
    // range, and hold the immovable primary.
    const SiteId sp = p.primary(k);
    const auto& list = scheme.replicas(k);
    if (!std::is_sorted(list.begin(), list.end()) ||
        std::adjacent_find(list.begin(), list.end()) != list.end() ||
        (!list.empty() && list.back() >= p.sites())) {
      add(out, "scheme.replica_list",
          "replicas(" + std::to_string(k) +
              ") is not strictly ascending in-range site ids");
      continue;
    }
    if (!std::binary_search(list.begin(), list.end(), sp)) {
      add(out, "scheme.replica_list",
          "replicas(" + std::to_string(k) + ") is missing the primary " +
              std::to_string(sp) + " (primary copies are immovable)");
      continue;
    }
    total_replicas += list.size();

    // Nearest cache at every demand cell: the lex (cost, site id) minimum
    // over the list's cost entries. Costs are *copied*, never summed, so
    // equality is exact; on cost ties the LOWEST site id must have won (any
    // other winner betrays an insertion-order-dependent update path).
    const auto sites = p.demand_sites(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      const std::size_t z = p.demand_begin(k) + j;
      const SiteId i = sites[j];
      double best_c = std::numeric_limits<double>::infinity();
      SiteId best_s = sp;
      for (const SiteId rep : list) {
        const double rc = p.cost(i, rep);
        if (core::closer_replica(rc, rep, best_c, best_s)) {
          best_c = rc;
          best_s = rep;
        }
      }
      const bool cost_ok = scheme.nearest_cost_at(z) == best_c;
      const bool site_ok = scheme.nearest_site_at(z) == best_s;
      if (cost_ok && site_ok) continue;
      std::string at = "(";
      at += std::to_string(i);
      at += ',';
      at += std::to_string(k);
      at += ')';
      if (!cost_ok) {
        add(out, "scheme.nearest_cost",
            "nearest_cost" + at + " = " + num(scheme.nearest_cost_at(z)) +
                ", exact min = " + num(best_c));
      }
      if (!site_ok) {
        add(out, "scheme.nearest_site",
            "nearest" + at + " = " + std::to_string(scheme.nearest_site_at(z)) +
                ", lex (cost, id) minimum is " + std::to_string(best_s));
      }
    }
  }

  if (scheme.total_replicas() != total_replicas) {
    add(out, "scheme.replica_count",
        "total_replicas() = " + std::to_string(scheme.total_replicas()) +
            ", lists hold " + std::to_string(total_replicas));
  }

  // Used-storage ledger: recompute from the lists (ascending object order,
  // the order the ledger accrued); the incremental += / -= bookkeeping may
  // drift by rounding, bounded by the scheme's explicit epsilon policy
  // (ReplicationScheme::capacity_slack).
  std::vector<double> exact_used(p.sites(), 0.0);
  for (ObjectId k = 0; k < p.objects(); ++k) {
    for (const SiteId rep : scheme.replicas(k)) {
      if (rep < p.sites()) exact_used[rep] += p.object_size(k);
    }
  }
  for (SiteId i = 0; i < p.sites(); ++i) {
    const double ledger = scheme.used(i);
    if (std::abs(ledger - exact_used[i]) > scheme.capacity_slack(i)) {
      add(out, "scheme.used_ledger",
          "used(" + std::to_string(i) + ") = " + num(ledger) +
              " drifted from list sum " + num(exact_used[i]) +
              " beyond slack " + num(scheme.capacity_slack(i)));
    }
  }
  return out;
}

Violations check_object_cost_cache(const core::Problem& problem,
                                   std::span<const std::uint8_t> matrix,
                                   std::span<const double> v) {
  Violations out;
  const std::size_t n = problem.objects();
  if (v.size() != n) {
    add(out, "ga.v_cache",
        "V_k cache length " + std::to_string(v.size()) + " != objects " +
            std::to_string(n));
    return out;
  }
  std::vector<double> exact(n, 0.0);
  const double exact_total =
      core::CostEvaluator(problem).full_cost(matrix, exact);
  double cached_total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    cached_total += v[k];
    if (v[k] != exact[k]) {
      add(out, "ga.v_cache",
          "inherited V_" + std::to_string(k) + " = " + num(v[k]) +
              ", from-scratch = " + num(exact[k]));
    }
  }
  if (cached_total != exact_total) {
    add(out, "ga.v_cache_total",
        "Σ cached V_k = " + num(cached_total) + ", from-scratch total = " +
            num(exact_total));
  }
  return out;
}

Violations check_sra_terminal(const core::ReplicationScheme& scheme) {
  Violations out;
  const core::Problem& p = scheme.problem();
  // Only a demand cell can have positive Eq. 5 benefit: with r_k(i) = 0 the
  // benefit is -(TW_k - w_k(i))·C(i,SP_k) <= 0, so the rows cover every
  // (site, object) pair that matters.
  for (ObjectId k = 0; k < p.objects(); ++k) {
    for (const SiteId i : p.demand_sites(k)) {
      if (scheme.has_replica(i, k) || !scheme.fits(i, k)) continue;
      const double benefit = core::local_benefit(scheme, i, k);
      if (benefit > 0.0) {
        add(out, "sra.terminal",
            "object " + std::to_string(k) + " still fits site " +
                std::to_string(i) + " with positive benefit " + num(benefit) +
                " — candidate pruning was unsound");
      }
    }
  }
  return out;
}

Violations check_availability(const core::ReplicationScheme& scheme,
                              const core::AvailabilityConstraint& constraint) {
  Violations out;
  const core::Problem& p = scheme.problem();
  constraint.validate(p.sites());
  for (ObjectId k = 0; k < p.objects(); ++k) {
    const auto& replicas = scheme.replicas(k);
    const double achieved =
        core::object_availability(constraint.site_availability, replicas);
    if (achieved < constraint.target - core::AvailabilityConstraint::kEps) {
      std::string sites;
      for (const SiteId i : replicas) {
        if (!sites.empty()) sites += ',';
        sites += std::to_string(i);
      }
      add(out, "scheme.availability",
          "object " + std::to_string(k) + " reaches availability " +
              num(achieved) + " < target " + num(constraint.target) +
              " with replicas {" + sites + "}");
    }
  }
  return out;
}

Violations check_online_log(const core::Problem& problem,
                            std::span<const std::uint8_t> initial,
                            std::span<const OnlineAction> log,
                            const core::ReplicationScheme& final_scheme) {
  Violations out;
  core::ReplicationScheme replayed(problem, initial);
  if (!replayed.is_valid())
    add(out, "online.initial_valid",
        "initial scheme already violates capacity (before any action)");
  for (std::size_t step = 0; step < log.size(); ++step) {
    const OnlineAction& action = log[step];
    const std::string at = "action " + std::to_string(step) + " (request " +
                           std::to_string(action.request_index) + ", site " +
                           std::to_string(action.site) + ", object " +
                           std::to_string(action.object) + ")";
    if (action.site >= problem.sites() || action.object >= problem.objects()) {
      add(out, "online.log_bounds", at + " is out of range");
      continue;
    }
    const bool present = replayed.has_replica(action.site, action.object);
    if (action.kind == OnlineAction::Kind::kEvict) {
      if (action.site == problem.primary(action.object)) {
        add(out, "online.primary_evicted",
            at + " evicts the primary copy (primaries are immovable)");
        continue;
      }
      if (!present) {
        add(out, "online.log_replay",
            at + " evicts a replica the replayed scheme does not hold");
        continue;
      }
      replayed.remove(action.site, action.object);
    } else {
      if (present) {
        add(out, "online.log_replay",
            at + " replicates a replica the replayed scheme already holds");
        continue;
      }
      replayed.add(action.site, action.object);
    }
    if (!replayed.is_valid())
      add(out, "online.mid_epoch_valid",
          at + " leaves a site over capacity beyond the slack policy");
  }
  bool same = final_scheme.problem().sites() == problem.sites() &&
              final_scheme.problem().objects() == problem.objects();
  for (ObjectId k = 0; same && k < problem.objects(); ++k)
    same = replayed.replicas(k) == final_scheme.replicas(k);
  if (!same)
    add(out, "online.log_replay",
        "replaying the decision log does not reproduce the final scheme "
        "bit-for-bit (" +
            std::to_string(replayed.total_replicas()) + " replayed vs " +
            std::to_string(final_scheme.total_replicas()) +
            " final replicas)");
  return out;
}

Violations check_message_conservation(const MessageCounts& counts) {
  Violations out;
  const std::size_t accounted = counts.delivered_data +
                                counts.delivered_control +
                                counts.dropped_link +
                                counts.dropped_site_down + counts.in_flight;
  if (counts.sent != accounted) {
    add(out, "des.message_conservation",
        "sent " + std::to_string(counts.sent) + " != delivered(" +
            std::to_string(counts.delivered_data) + " data + " +
            std::to_string(counts.delivered_control) + " control) + dropped(" +
            std::to_string(counts.dropped_link) + " link + " +
            std::to_string(counts.dropped_site_down) + " site-down) + " +
            std::to_string(counts.in_flight) + " in-flight");
  }
  return out;
}

namespace {
void check_sum(Violations& out, const char* invariant, double total,
               std::span<const double> parts) {
  double sum = 0.0;
  for (const double part : parts) sum += part;
  // Totals are accumulated in the same order the per-epoch entries were
  // recorded; a tiny relative tolerance keeps the check robust should a
  // future refactor re-order the summation.
  const double tolerance = 1e-12 * std::max(1.0, std::abs(sum));
  if (std::abs(total - sum) > tolerance) {
    out.push_back({invariant, "total " + num(total) +
                                  " != Σ per-epoch charges " + num(sum)});
  }
}
}  // namespace

Violations check_epoch_accounting(double served_total,
                                  std::span<const double> epoch_served,
                                  double migration_total,
                                  std::span<const double> epoch_migration) {
  Violations out;
  check_sum(out, "epochs.served_traffic", served_total, epoch_served);
  check_sum(out, "epochs.migration_traffic", migration_total, epoch_migration);
  return out;
}

Violations check_perfect_retune(const PerfectRetuneCounts& counts) {
  Violations out;
  const auto zero = [&](const char* name, std::size_t value) {
    if (value != 0)
      add(out, "retune.perfect_network",
          std::string(name) + " = " + std::to_string(value) +
              " on a fault-free network");
  };
  zero("retries", counts.retries);
  zero("timeouts", counts.timeouts);
  zero("give_ups", counts.give_ups);
  zero("duplicates", counts.duplicates);
  zero("reports_missing", counts.reports_missing);
  zero("directives_failed", counts.directives_failed);
  // Exactly-once rollout: each added replica fetched exactly once from its
  // designated holder at o_k × C, so measured fetch traffic == analytic
  // migration NTC. A double-executed directive would overshoot.
  const double tolerance =
      1e-9 * std::max(1.0, std::abs(counts.migration_traffic));
  if (std::abs(counts.data_traffic - counts.migration_traffic) > tolerance) {
    add(out, "retune.migration_traffic",
        "measured fetch traffic " + num(counts.data_traffic) +
            " != analytic migration NTC " + num(counts.migration_traffic));
  }
  return out;
}

Violations check_envelope_log(std::span<const EnvelopeRecord> log) {
  Violations out;
  std::set<std::tuple<std::size_t, std::uint16_t, std::uint64_t>> seen;
  for (std::size_t at = 0; at < log.size(); ++at) {
    const EnvelopeRecord& record = log[at];
    if (record.seq == 0) continue;  // unsequenced control
    if (!seen.emplace(record.sender, record.kind, record.seq).second) {
      add(out, "envelope.seq_once",
          "record " + std::to_string(at) + ": sender " +
              std::to_string(record.sender) + " kind " +
              std::to_string(record.kind) + " accepted seq " +
              std::to_string(record.seq) +
              " a second time (duplicate admitted)");
    }
  }
  return out;
}

Violations check_dist_convergence(const DistConvergenceCounts& counts) {
  Violations out;
  if (counts.perfect_network) {
    if (counts.decentralized_cost != counts.centralized_cost) {
      add(out, "dist.perfect_cost",
          "decentralized cost " + num(counts.decentralized_cost) +
              " != centralized " + num(counts.centralized_cost) +
              " on a perfect network");
    }
    if (counts.decentralized_scheme_hash != counts.centralized_scheme_hash) {
      add(out, "dist.perfect_scheme",
          "decentralized scheme hash " +
              std::to_string(counts.decentralized_scheme_hash) +
              " != centralized " +
              std::to_string(counts.centralized_scheme_hash) +
              " on a perfect network");
    }
    if (counts.decentralized_evaluations != counts.centralized_evaluations) {
      add(out, "dist.perfect_evaluations",
          "decentralized evaluations " +
              std::to_string(counts.decentralized_evaluations) +
              " != centralized " +
              std::to_string(counts.centralized_evaluations) +
              " on a perfect network");
    }
    return out;
  }
  if (!(counts.cost_ceiling_factor >= 1.0)) {
    add(out, "dist.cost_ceiling",
        "cost ceiling factor " + num(counts.cost_ceiling_factor) +
            " must be >= 1");
    return out;
  }
  const double ceiling = counts.cost_ceiling_factor * counts.centralized_cost;
  if (counts.decentralized_cost > ceiling) {
    add(out, "dist.degradation_ceiling",
        "decentralized cost " + num(counts.decentralized_cost) +
            " exceeds ceiling " + num(ceiling) + " (centralized " +
            num(counts.centralized_cost) + " × " +
            num(counts.cost_ceiling_factor) + ")");
  }
  return out;
}

}  // namespace drep::audit
