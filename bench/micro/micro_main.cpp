// Shared main for the google-benchmark micro benches.
//
// BENCHMARK_MAIN() only reports to stdout unless the caller remembers to
// pass --benchmark_out, so in practice no BENCH_<name>.json artifact ever
// landed and the micro-perf trajectory stayed empty. This main injects
//   --benchmark_out=<repo root>/BENCH_<basename(argv[0])>.json
//   --benchmark_out_format=json
// before benchmark::Initialize unless the caller passed --benchmark_out
// themselves, mirroring the figure harness's artifact convention. The
// artifact's context names the build (`git describe` at configure time) it
// was measured on.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/report.hpp"

#ifndef DREP_BENCH_ARTIFACT_DIR
#define DREP_BENCH_ARTIFACT_DIR "."
#endif

namespace {

std::string bench_name(const char* argv0) {
  std::string name(argv0 == nullptr ? "bench" : argv0);
  const auto slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name.empty() ? "bench" : name;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    out_flag = std::string("--benchmark_out=") + DREP_BENCH_ARTIFACT_DIR +
               "/BENCH_" + bench_name(argc > 0 ? argv[0] : nullptr) + ".json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::AddCustomContext("drep_build", drep::obs::build_version());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
