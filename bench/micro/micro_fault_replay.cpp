// Micro-benchmarks for the fault-injection layer. Two questions:
//
//   1. What does *arming* the layer cost when nothing fails? A zero-rate
//      FaultPlan turns on per-message bernoulli draws, acks, and retry
//      timers — BM_ReplayFaultless vs BM_ReplayZeroRatePlan is exactly
//      that overhead, and it bounds what a cautious deployment pays for
//      keeping the machinery always-on.
//   2. What does a *lossy* run cost? BM_ReplayLossy replays the same trace
//      under 10% drop + 5% latency spikes, where retransmissions and
//      fallback routing dominate. The delta over the zero-rate run is the
//      price of the faults themselves, not the harness.
//
// A fourth case drives distributed SRA under loss — the protocol-heavy
// path (token grants, fetch/announce ladders) rather than the
// data-plane-heavy replay.
//
// The BM_ReplayPaperShape pair times the DES kernel at the end-to-end
// benchmark's own shape: a 50x200 network, ~205k requests, 5% drops. With
// every injection at t=0 the traffic lands on a few hundred integer
// instants (the event queue's same-instant regime); with injections
// 0.0137 apart nearly every event time is distinct.
#include <benchmark/benchmark.h>

#include "algo/sra.hpp"
#include "sim/access_replay.hpp"
#include "sim/distributed_sra.hpp"
#include "sim/fault_plan.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

using namespace drep;

core::Problem bench_problem() {
  workload::GeneratorConfig config;
  config.sites = 15;
  config.objects = 25;
  config.update_ratio_percent = 5.0;
  config.capacity_percent = 25.0;
  util::Rng rng(42);
  return workload::generate(config, rng);
}

void BM_ReplayFaultless(benchmark::State& state) {
  const core::Problem problem = bench_problem();
  const core::ReplicationScheme scheme = algo::solve_sra(problem).scheme;
  util::Rng trng(7);
  const auto trace = workload::build_trace(problem, trng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::replay_trace(scheme, trace));
  }
  state.SetLabel("perfect network, no plan armed");
}
BENCHMARK(BM_ReplayFaultless)->Unit(benchmark::kMicrosecond);

void BM_ReplayZeroRatePlan(benchmark::State& state) {
  const core::Problem problem = bench_problem();
  const core::ReplicationScheme scheme = algo::solve_sra(problem).scheme;
  util::Rng trng(7);
  const auto trace = workload::build_trace(problem, trng);
  sim::ReplayOptions options;
  options.faults = sim::FaultPlan{};  // armed: draws + acks + timers
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::replay_trace(scheme, trace, options));
  }
  state.SetLabel("zero-rate plan armed (retry layer idle)");
}
BENCHMARK(BM_ReplayZeroRatePlan)->Unit(benchmark::kMicrosecond);

void BM_ReplayLossy(benchmark::State& state) {
  const core::Problem problem = bench_problem();
  const core::ReplicationScheme scheme = algo::solve_sra(problem).scheme;
  util::Rng trng(7);
  const auto trace = workload::build_trace(problem, trng);
  sim::ReplayOptions options;
  options.faults =
      sim::FaultPlan::parse("seed=9,drop=0.1,spike=0.05,crash=3@0..50");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::replay_trace(scheme, trace, options));
  }
  state.SetLabel("10% drop, 5% spikes, one crash window");
}
BENCHMARK(BM_ReplayLossy)->Unit(benchmark::kMicrosecond);

void replay_paper_shape(benchmark::State& state, double inter_arrival) {
  workload::GeneratorConfig config;
  config.sites = 50;
  config.objects = 200;
  config.update_ratio_percent = 5.0;
  config.capacity_percent = 15.0;
  util::Rng rng(42);
  const core::Problem problem = workload::generate(config, rng);
  const core::ReplicationScheme scheme = algo::solve_sra(problem).scheme;
  util::Rng trng(7);
  const auto trace = workload::build_trace(problem, trng);
  sim::ReplayOptions options;
  options.faults = sim::FaultPlan::parse("seed=9,drop=0.05");
  options.inter_arrival = inter_arrival;
  std::size_t messages = 0;
  for (auto _ : state) {
    const sim::ReplayResult result =
        sim::replay_trace(scheme, trace, options);
    messages += result.traffic.sent_messages;
    benchmark::DoNotOptimize(result.traffic.data_traffic);
  }
  state.counters["time_per_message"] = benchmark::Counter(
      static_cast<double>(messages),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_ReplayPaperShapeSameInstant(benchmark::State& state) {
  replay_paper_shape(state, 0.0);
  state.SetLabel("50x200, 5% drop, every injection at t=0");
}
BENCHMARK(BM_ReplayPaperShapeSameInstant)->Unit(benchmark::kMillisecond);

void BM_ReplayPaperShapeDistinctTimes(benchmark::State& state) {
  replay_paper_shape(state, 0.0137);
  state.SetLabel("50x200, 5% drop, injections 0.0137 apart");
}
BENCHMARK(BM_ReplayPaperShapeDistinctTimes)->Unit(benchmark::kMillisecond);

void BM_DistributedSraLossy(benchmark::State& state) {
  const core::Problem problem = bench_problem();
  sim::DistributedSraOptions options;
  options.faults = sim::FaultPlan::parse("seed=9,drop=0.15");
  options.retry.max_retries = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_distributed_sra(problem, options));
  }
  state.SetLabel("token protocol under 15% drop");
}
BENCHMARK(BM_DistributedSraLossy)->Unit(benchmark::kMicrosecond);

}  // namespace

// main() comes from micro_main.cpp, which lands the BENCH_<name>.json
// artifact in the repo root.
