// Serving front-end bench: aggregate throughput and tail latency of the
// RCU snapshot engine at 1/2/4 workers, with and without a concurrent
// retune thread, plus the trace-mode determinism table (the outcome hash
// must match bit-for-bit across worker counts).
//
// Artifact: BENCH_serve.json (schema_version 1) in the repo root, via the
// shared bench harness. Both tables serve the instance's own shuffled
// trace (workload::build_trace), built once. Table 1 measures the timed
// mode (each worker cycles over its slice of the trace; latencies are
// per-request samples); Table 2 replays the trace once with retunes pinned
// to trace positions and reports each worker count's outcome hash next to
// a match column against the single-worker reference.

#include <cstddef>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

using namespace drep;

std::string hash_hex(std::uint64_t hash) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << hash;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options = bench::Options::parse(argc, argv);

  workload::GeneratorConfig gen;
  gen.sites = options.paper ? 50 : 20;
  gen.objects = options.paper ? 200 : 50;
  util::Rng gen_rng(options.seed);
  const core::Problem problem = workload::generate(gen, gen_rng);

  util::Rng trace_rng(options.seed + 1);
  const std::vector<workload::Request> trace =
      workload::build_trace(problem, trace_rng);

  serve::ServeConfig config;
  config.seed = options.seed;
  config.algo = "sra";

  // --- Table 1: timed throughput, with and without concurrent retunes ----
  const double duration = options.paper ? 1.0 : 0.2;
  util::Table timed({"workers", "retunes", "requests", "req/s", "p50 us",
                     "p99 us", "p999 us", "generations"});
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const bool retune : {false, true}) {
      config.workers = workers;
      config.duration_seconds = duration;
      config.retune_interval_seconds = retune ? duration / 5.0 : 0.0;
      const serve::ServeReport report =
          serve::serve_timed(problem, trace, config);
      timed.row(3)
          .cell(workers)
          .cell(retune ? "on" : "off")
          .cell(report.requests)
          .cell(static_cast<std::size_t>(report.requests_per_second))
          .cell(report.p50_us)
          .cell(report.p99_us)
          .cell(report.p999_us)
          .cell(report.generations);
    }
  }
  bench::emit("serve: timed throughput and tail latency (" +
                  std::to_string(gen.sites) + " sites, " +
                  std::to_string(gen.objects) + " objects)",
              timed, options);

  // --- Table 2: trace-mode determinism across worker counts --------------
  config.retune_every = trace.size() / 4;

  util::Table determinism({"workers", "outcome hash", "served cost",
                           "generations", "match"});
  std::uint64_t reference_hash = 0;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    config.workers = workers;
    const serve::ServeReport report =
        serve::serve_trace(problem, trace, config);
    if (workers == 1) reference_hash = report.outcome_hash;
    determinism.row(3)
        .cell(workers)
        .cell(hash_hex(report.outcome_hash))
        .cell(report.served_cost)
        .cell(report.generations)
        .cell(report.outcome_hash == reference_hash ? "yes" : "NO");
  }
  bench::emit("serve: trace-replay outcome determinism (" +
                  std::to_string(trace.size()) + " requests)",
              determinism, options);
  return 0;
}
