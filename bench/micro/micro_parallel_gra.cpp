// Micro-benchmarks for the island-model GRA (DESIGN.md Section 10): the
// serial single-population baseline against parallel fitness evaluation and
// the K-island ring at the paper-scale 200-site / 1000-object shape.
//
// Every variant is bit-deterministic for a fixed seed, so the comparison is
// pure scheduling: identical work, different placement. The wall-clock gap
// between BM_GraIslandRing and BM_GraSerial only opens on multi-core
// runners (CI); on a single-core box the variants time alike and the
// artifact still records all of them.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "algo/gra.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace {

using namespace drep;

core::Problem make_problem(std::size_t sites, std::size_t objects) {
  workload::GeneratorConfig config;
  config.sites = sites;
  config.objects = objects;
  config.update_ratio_percent = 5.0;
  config.capacity_percent = 15.0;
  util::Rng rng(42);
  return workload::generate(config, rng);
}

// Random init keeps the measured region the generation loop itself; the
// SRA-seeded default would front-load Np SRA sweeps into every iteration.
algo::GraConfig base_config() {
  algo::GraConfig config;
  config.population = 16;
  config.generations = 8;
  config.init = algo::GraConfig::Init::kRandom;
  return config;
}

void run_gra(benchmark::State& state, const core::Problem& problem,
             const algo::GraConfig& config) {
  double cost = 0.0;
  std::size_t evaluations = 0;
  for (auto _ : state) {
    util::Rng rng(14);
    algo::GraResult result = algo::solve_gra(problem, config, rng);
    cost = result.best.cost;
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result.best.cost);
  }
  state.counters["final_cost"] = cost;
  state.counters["evaluations"] = static_cast<double>(evaluations);
}

// Baseline: one population, one thread, serial evaluation.
void BM_GraSerial(benchmark::State& state) {
  const auto problem =
      make_problem(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  algo::GraConfig config = base_config();
  config.common.threads = 1;
  run_gra(state, problem, config);
  state.SetLabel("islands=1 threads=1 serial eval");
}
BENCHMARK(BM_GraSerial)
    ->Args({50, 200})
    ->Args({200, 1000})
    ->Unit(benchmark::kMillisecond);

// One population, fitness evaluation fanned out on the shared pool.
void BM_GraParallelEval(benchmark::State& state) {
  const auto problem =
      make_problem(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  algo::GraConfig config = base_config();
  config.common.threads = 0;
  run_gra(state, problem, config);
  state.SetLabel("islands=1 parallel eval");
}
BENCHMARK(BM_GraParallelEval)
    ->Args({50, 200})
    ->Args({200, 1000})
    ->Unit(benchmark::kMillisecond);

// Headline: 4 islands on 4 threads, ring migration every 4 generations.
void BM_GraIslandRing(benchmark::State& state) {
  const auto problem =
      make_problem(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  util::ThreadPool::configure_shared(4);
  algo::GraConfig config = base_config();
  config.islands = 4;
  config.common.threads = 4;
  config.migration_interval = 4;
  config.migration_count = 1;
  run_gra(state, problem, config);
  state.SetLabel("islands=4 threads=4 ring migration");
}
BENCHMARK(BM_GraIslandRing)
    ->Args({50, 200})
    ->Args({200, 1000})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// main() comes from micro_main.cpp, which lands the
// BENCH_micro_parallel_gra.json artifact in the repo root.
