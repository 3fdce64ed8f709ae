// Micro-benchmarks for delta evaluation on core::CostEvaluator (a V_k
// vector kept by full_cost/delta_cost) against the full O(M·N) evaluation
// it replaces in the GA hot path. The headline number is the single-flip
// re-evaluation vs CostEvaluator::total_cost at the paper-scale 200-site /
// 1000-object shape (see DESIGN.md, incremental cost model).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "algo/gra.hpp"
#include "core/cost_model.hpp"
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

ga::Chromosome dense_chromosome(const core::Problem& problem) {
  util::Rng rng(7);
  return algo::random_population(problem, 1, rng).front();
}

/// A non-primary cell to toggle.
std::pair<core::SiteId, core::ObjectId> free_cell(const core::Problem& p) {
  return {p.primary(0) == 0 ? core::SiteId{1} : core::SiteId{0},
          core::ObjectId{0}};
}

// Baseline: the full evaluation the GA used to pay for every chromosome.
void BM_FullTotalCost(benchmark::State& state) {
  const auto problem =
      make_problem(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  core::CostEvaluator evaluator(problem);
  const ga::Chromosome genes = dense_chromosome(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.total_cost(genes));
  }
  state.SetLabel("full O(M*N) evaluation");
}
BENCHMARK(BM_FullTotalCost)
    ->Args({20, 100})
    ->Args({50, 400})
    ->Args({100, 500})
    ->Args({200, 1000});

// Headline: re-evaluating after a single bit flip (one mutation).
void BM_DeltaApplyFlip(benchmark::State& state) {
  const auto problem =
      make_problem(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  core::CostEvaluator evaluator(problem);
  ga::Chromosome genes = dense_chromosome(problem);
  std::vector<double> v(problem.objects(), 0.0);
  benchmark::DoNotOptimize(evaluator.full_cost(genes, v));
  const auto [site, object] = free_cell(problem);
  std::uint8_t& bit = genes[site * problem.objects() + object];
  const core::ObjectId changed[] = {object};
  for (auto _ : state) {
    // Toggles the replica on/off; every iteration is one flip.
    bit = bit != 0 ? 0 : 1;
    benchmark::DoNotOptimize(evaluator.delta_cost(genes, changed, v));
  }
  state.SetLabel("single-flip re-evaluation");
}
BENCHMARK(BM_DeltaApplyFlip)
    ->Args({20, 100})
    ->Args({50, 400})
    ->Args({100, 500})
    ->Args({200, 1000});

// Read-only flip probe (AGRA's exact-delta repair scoring): one column
// cost of the flipped column, no re-sum.
void BM_DeltaPeekFlip(benchmark::State& state) {
  const auto problem =
      make_problem(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  core::CostEvaluator evaluator(problem);
  ga::Chromosome genes = dense_chromosome(problem);
  const auto [site, object] = free_cell(problem);
  std::uint8_t& bit = genes[site * problem.objects() + object];
  bit = bit != 0 ? 0 : 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.column_cost(genes, object));
  }
  state.SetLabel("hypothetical-flip probe");
}
BENCHMARK(BM_DeltaPeekFlip)->Args({50, 400})->Args({200, 1000});

// The stateless population path: re-derive only `touched` objects of a
// mutated chromosome against a cached per-object cost vector.
void BM_DeltaCostTouched(benchmark::State& state) {
  const auto problem = make_problem(200, 1000);
  core::CostEvaluator evaluator(problem);
  ga::Chromosome genes = dense_chromosome(problem);
  std::vector<double> v(problem.objects(), 0.0);
  benchmark::DoNotOptimize(evaluator.full_cost(genes, v));
  std::vector<core::ObjectId> touched;
  for (std::int64_t t = 0; t < state.range(0); ++t) {
    touched.push_back(static_cast<core::ObjectId>(
        (t * 97) % static_cast<std::int64_t>(problem.objects())));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.delta_cost(genes, touched, v));
  }
  state.SetLabel("delta_cost, N=1000");
}
BENCHMARK(BM_DeltaCostTouched)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

// main() comes from micro_main.cpp, which lands the BENCH_<name>.json
// artifact in the repo root.
