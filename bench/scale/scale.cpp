// Scale bench: SRA on partial demand rows at the "thousands of sites,
// millions of objects" target (BENCH_scale.json).
//
// Three rows chart the scaling curve:
//   * 200 × 20,000   — differential point: the full-row copy of the instance
//     still fits, so the row also PROVES the partial-row run bit-identical
//     (cost, savings, replica lists, stats) to solve_sra on full rows;
//   * 1,000 × 100,000 — the CI release-smoke point (partial rows only);
//   * 1,000 × 1,000,000 — the headline: SRA over a thousand-site,
//     million-object instance in seconds. Full rows here would need
//     ~16 GB of demand cells before doing any work.
//
// --max-objects=N skips rows larger than N (sanitizer jobs cap the sweep);
// all rows stream their instance through workload::build_sparse_instance,
// so peak memory scales in nnz, not M·N. The build column includes
// Problem::validate(), whose metric check is O(M³).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algo/sra.hpp"
#include "common/harness.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/stream_gen.hpp"

namespace {

using namespace drep;

struct Point {
  std::size_t sites;
  std::size_t objects;
  bool dense_check;  // also run SRA on full rows and assert bit-equality
};

}  // namespace

int main(int argc, char** argv) {
  // Options::parse owns the shared flags; --max-objects is scale-specific,
  // so strip it before delegating.
  std::size_t max_objects = 0;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int a = 0; a < argc; ++a) {
    if (std::strncmp(argv[a], "--max-objects=", 14) == 0) {
      max_objects = static_cast<std::size_t>(
          std::strtoull(argv[a] + 14, nullptr, 10));
    } else {
      args.push_back(argv[a]);
    }
  }
  const bench::Options options =
      bench::Options::parse(static_cast<int>(args.size()), args.data());

  const std::vector<Point> points{
      {200, 20'000, true},
      {1'000, 100'000, false},
      {1'000, 1'000'000, false},
  };

  util::Table table({"sites", "objects", "demand cells", "extra replicas",
                     "savings %", "build s", "solve s", "site visits",
                     "dense check"});
  for (const Point& point : points) {
    if (max_objects != 0 && point.objects > max_objects) {
      std::printf("skipping %zu x %zu (--max-objects=%zu)\n", point.sites,
                  point.objects, max_objects);
      continue;
    }
    workload::StreamConfig config;
    config.sites = point.sites;
    config.objects = point.objects;
    config.seed = options.seed + point.sites + point.objects;

    util::Stopwatch build_watch;
    const core::Problem instance = workload::build_sparse_instance(config);
    const double build_seconds = build_watch.seconds();

    util::Rng sra_rng(config.seed ^ 0x5ca1eULL);
    algo::SraStats stats;
    const algo::AlgorithmResult result =
        algo::solve_sra(instance, algo::SraConfig{}, sra_rng, &stats);

    std::string dense_check = "-";
    if (point.dense_check) {
      const core::Problem problem = instance.materialize();
      util::Rng dense_rng(config.seed ^ 0x5ca1eULL);
      algo::SraStats dense_stats;
      const algo::AlgorithmResult dense =
          algo::solve_sra(problem, algo::SraConfig{}, dense_rng, &dense_stats);
      bool identical =
          dense.cost == result.cost &&
          dense.savings_percent == result.savings_percent &&
          dense.extra_replicas == result.extra_replicas &&
          dense_stats.site_visits == stats.site_visits &&
          dense_stats.benefit_evaluations == stats.benefit_evaluations;
      for (core::ObjectId k = 0; identical && k < instance.objects(); ++k)
        identical = dense.scheme.replicas(k) == result.scheme.replicas(k);
      dense_check = identical ? "bit-identical" : "DIVERGED";
      if (!identical) {
        std::fprintf(stderr,
                     "scale: partial rows diverged from full rows at %zu x "
                     "%zu (partial cost %.17g, full cost %.17g)\n",
                     point.sites, point.objects, result.cost, dense.cost);
        return 1;
      }
    }

    table.row(3)
        .cell(point.sites)
        .cell(point.objects)
        .cell(instance.demand_cells())
        .cell(result.extra_replicas)
        .cell(result.savings_percent)
        .cell(build_seconds)
        .cell(result.elapsed_seconds)
        .cell(stats.site_visits)
        .cell(dense_check);
  }
  bench::emit("Sparse SRA scaling (streamed instances)", table, options);
  return 0;
}
