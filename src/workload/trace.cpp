#include "workload/trace.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace drep::workload {

namespace {
std::uint64_t integral_count(double count, const char* what) {
  if (count < 0.0 || std::floor(count) != count)
    throw std::invalid_argument(std::string(what) +
                                ": request counts must be non-negative integers");
  return static_cast<std::uint64_t>(count);
}
}  // namespace

std::vector<Request> build_trace(const core::Problem& problem, util::Rng& rng) {
  // The pre-shuffle order is site-major (site, then object ascending), the
  // order the shuffle's output is pinned to. Demand rows are object-major,
  // so a stable counting sort on the site gathers the nonzero cells into
  // that order without a site-major walk over the rows; zero cells emit
  // nothing either way.
  const std::size_t m = problem.sites();
  const auto reads = problem.demand_reads();
  const auto writes = problem.demand_writes();
  const auto nonzero = [&](std::size_t z) {
    return reads[z] != 0.0 || writes[z] != 0.0;
  };
  std::vector<std::size_t> site_start(m + 1, 0);
  for (core::ObjectId k = 0; k < problem.objects(); ++k) {
    const auto sites = problem.demand_sites(k);
    const std::size_t begin = problem.demand_begin(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      if (nonzero(begin + j)) ++site_start[sites[j] + 1];
    }
  }
  for (std::size_t i = 0; i < m; ++i) site_start[i + 1] += site_start[i];
  std::vector<std::size_t> next(site_start.begin(), site_start.end() - 1);
  std::vector<std::pair<core::ObjectId, std::size_t>> cells(site_start[m]);
  for (core::ObjectId k = 0; k < problem.objects(); ++k) {
    const auto sites = problem.demand_sites(k);
    const std::size_t begin = problem.demand_begin(k);
    for (std::size_t j = 0; j < sites.size(); ++j) {
      if (nonzero(begin + j)) cells[next[sites[j]]++] = {k, begin + j};
    }
  }

  std::vector<Request> trace;
  trace.reserve(trace_size(problem));
  for (core::SiteId i = 0; i < m; ++i) {
    for (std::size_t c = site_start[i]; c < site_start[i + 1]; ++c) {
      const auto [k, z] = cells[c];
      const auto read_count = integral_count(reads[z], "build_trace");
      for (std::uint64_t r = 0; r < read_count; ++r)
        trace.push_back({i, k, /*is_write=*/false});
      const auto write_count = integral_count(writes[z], "build_trace");
      for (std::uint64_t w = 0; w < write_count; ++w)
        trace.push_back({i, k, /*is_write=*/true});
    }
  }
  rng.shuffle(trace);
  return trace;
}

std::size_t trace_size(const core::Problem& problem) {
  double total = 0.0;
  for (core::ObjectId k = 0; k < problem.objects(); ++k)
    total += problem.total_reads(k) + problem.total_writes(k);
  return static_cast<std::size_t>(total);
}

}  // namespace drep::workload
