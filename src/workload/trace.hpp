#pragma once
// Request traces: the bridge between the aggregate R/W matrices the DRP
// works with and the individual read/write requests the discrete-event
// simulator replays. A trace built from a problem contains *exactly*
// r_k(i) read and w_k(i) write requests per (site, object) pair, so the
// replayed traffic of any scheme must equal the analytic cost model's D —
// the core validation property of this reproduction.

#include <span>
#include <vector>

#include "core/problem.hpp"
#include "util/rng.hpp"

namespace drep::workload {

struct Request {
  core::SiteId site;
  core::ObjectId object;
  bool is_write;
};

/// Materializes the problem's request matrices as a uniformly shuffled
/// request sequence. Throws std::invalid_argument when any count is not a
/// non-negative integer (traces are only meaningful for integral counts).
[[nodiscard]] std::vector<Request> build_trace(const core::Problem& problem,
                                               util::Rng& rng);

/// Total number of requests a trace of `problem` would contain.
[[nodiscard]] std::size_t trace_size(const core::Problem& problem);

/// Adds one read or one write per request to `problem`'s counts through
/// its checked add path, in trace order: into a problem after
/// clear_demand(), build_trace's output counts back to the matrices it was
/// built from. Throws like Problem::add_reads on an out-of-range id or a
/// cell absent from a partial row.
void count_requests(std::span<const Request> trace, core::Problem& problem);

}  // namespace drep::workload
