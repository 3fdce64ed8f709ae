// pipebench: seeded end-to-end replication benchmark binary.
//
//   pipebench --workload <paper-adapt|serve-live> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload's pipeline through the library's public API for the
// given time budget and prints one JSON line: the build it ran on, every
// metric with its unit (end-to-end metrics untraced, per-layer metrics
// traced), the correctness gate's outcome and the operation count. run.py
// builds this binary and turns that line into the benchmark's result.
//
// Exit codes: 0 = ran (the gate may still have failed: see "gate"),
// 2 = usage error, 3 = refused build (not Release, or DREP_AUDIT=ON,
// or DREP_OBS=OFF, which would leave the per-layer counters empty),
// 1 = the pipeline threw.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using pipebench::RunConfig;

int usage(const std::string& problem) {
  std::cerr << "pipebench: " << problem
            << "\nusage: pipebench --workload <paper-adapt|serve-live> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

bool parse_args(int argc, char** argv, RunConfig& config, std::string& error) {
  for (int a = 1; a < argc; ++a) {
    const std::string_view flag = argv[a];
    if (a + 1 >= argc) {
      error = "missing value for " + std::string(flag);
      return false;
    }
    const std::string value = argv[++a];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        config.trace = value == "1";
      } else {
        error = "unknown flag " + std::string(flag);
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + std::string(flag) + ": " + value;
      return false;
    }
  }
  if (config.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  if (!(config.seconds > 0.0)) {
    error = "--seconds must be positive";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string error;
  if (!parse_args(argc, argv, config, error)) return usage(error);

  const std::string build_type = PIPEBENCH_BUILD_TYPE;
  const std::string drep_obs = PIPEBENCH_DREP_OBS;
  const std::string drep_audit = PIPEBENCH_DREP_AUDIT;
  if (build_type != "Release" || drep_audit != "OFF" || drep_obs != "ON") {
    std::cerr << "pipebench: refusing to report from a " << build_type
              << " build with DREP_OBS=" << drep_obs
              << " DREP_AUDIT=" << drep_audit
              << " (needs Release, DREP_OBS=ON, DREP_AUDIT=OFF)\n";
    return 3;
  }

  // Pin glibc's mmap threshold at the ceiling its adaptive threshold climbs
  // to (32 MiB on 64-bit). Adapting, it rises with the order in which the
  // run's threads happen to free large arrays, so identical runs kept
  // different arrays on the heap and peak RSS jumped by 20-40% between them.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);

  // Every phase stays within 4 threads: the solver pool has 4 workers while
  // the calling thread waits, serving uses 3 workers, and the probe phase
  // runs the probe beside one retune thread.
  drep::util::ThreadPool::configure_shared(4);

  pipebench::Report report;
  pipebench::Gate gate;
  try {
    if (config.workload == "paper-adapt") {
      pipebench::run_paper_adapt(config, report, gate);
    } else if (config.workload == "serve-live") {
      pipebench::run_serve_live(config, report, gate);
    } else {
      return usage("unknown workload " + config.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "pipebench: " << config.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (!config.trace) report.set("peak_rss_mb", pipebench::peak_rss_mb(), "MB");

  drep::obs::Json out = drep::obs::Json::object();
  out["workload"] = drep::obs::Json(config.workload);
  out["seed"] = drep::obs::Json(config.seed);
  out["seconds"] = drep::obs::Json(config.seconds);
  out["trace"] = drep::obs::Json(config.trace);
  drep::obs::Json build = drep::obs::Json::object();
  build["build_type"] = drep::obs::Json(build_type);
  build["drep_obs"] = drep::obs::Json(drep_obs);
  build["drep_audit"] = drep::obs::Json(drep_audit);
  out["build"] = std::move(build);
  out["metrics"] = report.metrics_json();
  drep::obs::Json gate_json = drep::obs::Json::object();
  gate_json["checks"] = drep::obs::Json(gate.checks());
  gate_json["failures"] = drep::obs::Json(gate.failures());
  gate_json["messages"] = gate.messages_json();
  out["gate"] = std::move(gate_json);
  out["attempted"] = drep::obs::Json(report.attempted());
  std::cout << out.dump() << std::endl;
  return 0;
}
