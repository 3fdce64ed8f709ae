// Micro-benchmarks (google-benchmark) for the GA operators and the greedy
// solver itself.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "algo/adr.hpp"
#include "algo/gra.hpp"
#include "algo/sra.hpp"
#include "ga/crossover.hpp"
#include "ga/mutation.hpp"
#include "ga/selection.hpp"
#include "workload/generator.hpp"

namespace {

using namespace drep;

void BM_TwoPointCrossover(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  ga::Chromosome a(bits, 0), b(bits, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga::two_point_crossover(a, b, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TwoPointCrossover)->Arg(1000)->Arg(7500)->Arg(30000);

void BM_MutationSweep(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  ga::Chromosome genes(bits, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga::mutate_bits(genes, 0.01, rng));
  }
  state.SetLabel("geometric-gap bit-flip mutation at rate 0.01");
}
BENCHMARK(BM_MutationSweep)->Arg(1000)->Arg(7500)->Arg(30000);

void BM_StochasticRemainder(benchmark::State& state) {
  const auto pool = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<double> fitness(pool);
  for (auto& f : fitness) f = rng.uniform01();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ga::stochastic_remainder_selection(fitness, pool / 3, rng));
  }
}
BENCHMARK(BM_StochasticRemainder)->Arg(150)->Arg(600);

/// Two valid GRA chromosomes of a generated sites × objects instance (the
/// paper's 5% update, 15% capacity shape), whichever gene density its
/// capacity allows.
struct GaFixture {
  core::Problem problem;
  std::vector<ga::Chromosome> genes;
};

GaFixture ga_fixture(const benchmark::State& state) {
  workload::GeneratorConfig config;
  config.sites = static_cast<std::size_t>(state.range(0));
  config.objects = static_cast<std::size_t>(state.range(1));
  config.update_ratio_percent = 5.0;
  config.capacity_percent = 15.0;
  util::Rng rng(7);
  core::Problem problem = workload::generate(config, rng);
  auto genes = algo::random_population(problem, 2, rng);
  return {std::move(problem), std::move(genes)};
}

void BM_ChromosomeLoads(benchmark::State& state) {
  const GaFixture fixture = ga_fixture(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::chromosome_loads(fixture.problem, fixture.genes[0]));
  }
  state.SetLabel("per-site storage loads of one M*N chromosome");
}
BENCHMARK(BM_ChromosomeLoads)->Args({50, 200})->Args({200, 1000});

void BM_DifferingColumns(benchmark::State& state) {
  const GaFixture fixture = ga_fixture(state);
  ga::Chromosome child = fixture.genes[0];
  ga::Chromosome other = fixture.genes[1];
  util::Rng rng(8);
  (void)ga::two_point_crossover(child, other, rng);
  const std::size_t objects = fixture.problem.objects();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ga::differing_columns(child, fixture.genes[0], objects));
  }
  state.SetLabel("touched objects of a crossover child against its parent");
}
BENCHMARK(BM_DifferingColumns)->Args({50, 200})->Args({200, 1000});

void BM_AdrSolve(benchmark::State& state) {
  workload::GeneratorConfig config;
  config.sites = static_cast<std::size_t>(state.range(0));
  config.objects = 150;
  config.update_ratio_percent = 5.0;
  util::Rng gen_rng(6);
  const core::Problem problem = workload::generate(config, gen_rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::solve_adr_mst(problem));
  }
}
BENCHMARK(BM_AdrSolve)->Arg(20)->Arg(50);

void BM_SraSolve(benchmark::State& state) {
  workload::GeneratorConfig config;
  config.sites = static_cast<std::size_t>(state.range(0));
  config.objects = 150;
  config.update_ratio_percent = 5.0;
  util::Rng gen_rng(4);
  const core::Problem problem = workload::generate(config, gen_rng);
  for (auto _ : state) {
    util::Rng rng(5);
    benchmark::DoNotOptimize(
        algo::solve_sra(problem, algo::SraConfig{}, rng));
  }
}
BENCHMARK(BM_SraSolve)->Arg(20)->Arg(50)->Arg(100);

}  // namespace

// main() comes from micro_main.cpp, which lands the BENCH_<name>.json
// artifact in the repo root.
