#include "sim/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace drep::sim {

namespace {

[[noreturn]] void bad_spec(const std::string& why) {
  throw std::invalid_argument("FaultPlan: " + why);
}

double parse_number(std::string_view text, const std::string& what) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size())
    bad_spec(what + " expects a number, got '" + copy + "'");
  return value;
}

/// Decimal digits only (no sign or blanks), at most `max`.
std::uint64_t parse_u64(std::string_view text, const std::string& what,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (text.empty() || error != std::errc{} || end != last || value > max) {
    bad_spec(what + " expects an integer in [0, " + std::to_string(max) +
             "], got '" + std::string(text) + "'");
  }
  return value;
}

/// crash=SITE@FROM..UNTIL with UNTIL optional (empty = forever).
CrashWindow parse_crash(std::string_view text) {
  const auto at = text.find('@');
  if (at == std::string_view::npos)
    bad_spec("crash expects SITE@FROM..UNTIL, got '" + std::string(text) + "'");
  CrashWindow window;
  window.site = static_cast<net::SiteId>(
      parse_u64(text.substr(0, at), "crash site",
                std::numeric_limits<net::SiteId>::max()));
  const std::string_view range = text.substr(at + 1);
  const auto dots = range.find("..");
  if (dots == std::string_view::npos)
    bad_spec("crash expects FROM..UNTIL after '@', got '" + std::string(range) +
             "'");
  window.from = parse_number(range.substr(0, dots), "crash start");
  const std::string_view until = range.substr(dots + 2);
  if (!until.empty()) window.until = parse_number(until, "crash end");
  return window;
}

}  // namespace

bool FaultPlan::site_down(net::SiteId site, double at) const noexcept {
  for (const CrashWindow& window : crashes) {
    if (window.site == site && at >= window.from && at < window.until)
      return true;
  }
  return false;
}

std::vector<net::SiteId> FaultPlan::down_sites(std::size_t sites,
                                               double at) const {
  std::vector<net::SiteId> down;
  for (net::SiteId site = 0; site < sites; ++site) {
    if (site_down(site, at)) down.push_back(site);
  }
  return down;
}

std::vector<net::SiteId> FaultPlan::crashed_sites() const {
  std::vector<net::SiteId> sites;
  for (const CrashWindow& window : crashes) sites.push_back(window.site);
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

std::vector<double> FaultPlan::site_availability(std::size_t sites,
                                                 double horizon) const {
  if (horizon <= 0.0) {
    horizon = 1.0;
    for (const CrashWindow& window : crashes) {
      horizon = std::max(horizon, window.from);
      if (std::isfinite(window.until))
        horizon = std::max(horizon, window.until);
    }
  }
  std::vector<double> availability(sites, 1.0);
  // Merge each site's windows on a sorted copy so overlaps are not counted
  // twice.
  std::vector<CrashWindow> sorted = crashes;
  std::sort(sorted.begin(), sorted.end(),
            [](const CrashWindow& a, const CrashWindow& b) {
              if (a.site != b.site) return a.site < b.site;
              return a.from < b.from;
            });
  std::size_t at = 0;
  while (at < sorted.size()) {
    const net::SiteId site = sorted[at].site;
    double down = 0.0;
    double open_from = sorted[at].from;
    double open_until = sorted[at].until;
    for (++at; at < sorted.size() && sorted[at].site == site; ++at) {
      if (sorted[at].from <= open_until) {
        open_until = std::max(open_until, sorted[at].until);
      } else {
        down += std::min(open_until, horizon) - std::min(open_from, horizon);
        open_from = sorted[at].from;
        open_until = sorted[at].until;
      }
    }
    down += std::min(open_until, horizon) - std::min(open_from, horizon);
    if (site < sites)
      availability[site] = std::clamp(1.0 - down / horizon, 0.0, 1.0);
  }
  return availability;
}

void FaultPlan::validate() const {
  const auto probability = [](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0))
      bad_spec(std::string(what) + " must be in [0, 1]");
  };
  probability(drop_probability, "drop probability");
  probability(spike_probability, "spike probability");
  if (!(spike_factor >= 1.0)) bad_spec("spike factor must be >= 1");
  for (const CrashWindow& window : crashes) {
    if (!(window.from >= 0.0)) bad_spec("crash start must be >= 0");
    if (!(window.until > window.from))
      bad_spec("crash window must satisfy until > from");
  }
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string_view::npos)
      bad_spec("expected key=value, got '" + std::string(item) + "'");
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64(value, "seed");
    } else if (key == "drop") {
      plan.drop_probability = parse_number(value, "drop");
    } else if (key == "spike") {
      plan.spike_probability = parse_number(value, "spike");
    } else if (key == "spikex") {
      plan.spike_factor = parse_number(value, "spikex");
    } else if (key == "crash") {
      plan.crashes.push_back(parse_crash(value));
    } else {
      bad_spec("unknown key '" + std::string(key) + "'");
    }
  }
  plan.validate();
  return plan;
}

double RetryPolicy::resolve_base(double worst_one_way_latency) const {
  if (base_timeout > 0.0) return base_timeout;
  // Four one-way worst-case legs: a request/response round trip plus slack
  // for processing fan-out, so a healthy exchange never times out.
  const double derived = 4.0 * worst_one_way_latency;
  return derived > 0.0 ? derived : 1.0;
}

double RetryPolicy::timeout_for(double base, std::size_t attempt) const {
  return base * std::pow(backoff, static_cast<double>(attempt));
}

double RetryPolicy::give_up_time(double base) const {
  double total = 0.0;
  for (std::size_t attempt = 0; attempt <= max_retries; ++attempt)
    total += timeout_for(base, attempt);
  return total;
}

DegradedService evaluate_with_failures(const core::ReplicationScheme& scheme,
                                       std::span<const core::SiteId> failed) {
  const core::Problem& problem = scheme.problem();
  std::vector<bool> down(problem.sites(), false);
  std::size_t down_count = 0;
  for (const core::SiteId site : failed) {
    if (site >= problem.sites())
      throw std::invalid_argument("evaluate_with_failures: site out of range");
    if (!down[site]) {
      down[site] = true;
      ++down_count;
    }
  }
  if (down_count == problem.sites())
    throw std::invalid_argument("evaluate_with_failures: every site failed");

  DegradedService report;
  double servable_reads = 0.0, total_reads = 0.0;
  double servable_writes = 0.0, total_writes = 0.0;

  for (core::ObjectId k = 0; k < problem.objects(); ++k) {
    const double o = problem.object_size(k);
    // Surviving replicas of k.
    bool any_survivor = false;
    for (const core::SiteId rep : scheme.replicas(k)) {
      if (!down[rep]) {
        any_survivor = true;
        break;
      }
    }
    if (!any_survivor) ++report.objects_lost;
    const bool primary_up = !down[problem.primary(k)];

    for (core::SiteId i = 0; i < problem.sites(); ++i) {
      if (down[i]) continue;  // requests from failed sites don't count
      const double reads = problem.reads(i, k);
      const double writes = problem.writes(i, k);
      total_reads += reads;
      total_writes += writes;
      if (any_survivor && reads > 0.0) {
        servable_reads += reads;
        report.healthy_read_cost += reads * o * scheme.nearest_cost(i, k);
        double nearest_up = std::numeric_limits<double>::infinity();
        for (const core::SiteId rep : scheme.replicas(k)) {
          if (!down[rep]) nearest_up = std::min(nearest_up, problem.cost(i, rep));
        }
        report.degraded_read_cost += reads * o * nearest_up;
      }
      if (primary_up) servable_writes += writes;
    }
  }

  report.read_availability =
      total_reads > 0.0 ? servable_reads / total_reads : 1.0;
  report.write_availability =
      total_writes > 0.0 ? servable_writes / total_writes : 1.0;
  return report;
}

DegradedService evaluate_with_failures(const core::ReplicationScheme& scheme,
                                       const FaultPlan& plan, double at) {
  const std::vector<core::SiteId> failed =
      plan.down_sites(scheme.problem().sites(), at);
  return evaluate_with_failures(scheme, failed);
}

double expected_read_availability(const core::ReplicationScheme& scheme,
                                  std::size_t failures, std::size_t trials,
                                  util::Rng& rng) {
  const std::size_t m = scheme.problem().sites();
  if (failures >= m)
    throw std::invalid_argument("expected_read_availability: failures >= sites");
  if (trials == 0)
    throw std::invalid_argument("expected_read_availability: zero trials");
  std::vector<core::SiteId> sites(m);
  std::iota(sites.begin(), sites.end(), 0);
  double total = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    rng.shuffle(sites);
    const std::span<const core::SiteId> failed(sites.data(), failures);
    total += evaluate_with_failures(scheme, failed).read_availability;
  }
  return total / static_cast<double>(trials);
}

}  // namespace drep::sim
