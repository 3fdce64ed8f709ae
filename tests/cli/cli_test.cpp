// Drives drep::cli::run() in-process: argument validation exit codes, the
// solve/replay report pipeline, report determinism, and --algo=agra.

#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace drep::cli {
namespace {

int run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "drep");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return run(static_cast<int>(argv.size()), argv.data());
}

obs::Json load_json(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return obs::Json::parse(buffer.str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Recursively removes every object member whose key mentions wall time;
/// what remains must be byte-stable for a fixed seed.
void strip_timing(obs::Json& value) {
  if (value.is_object()) {
    auto& object = value.as_object();
    object.erase(std::remove_if(object.begin(), object.end(),
                                [](const auto& member) {
                                  return member.first.find("seconds") !=
                                         std::string::npos;
                                }),
                 object.end());
    for (auto& [key, member] : object) strip_timing(member);
  } else if (value.is_array()) {
    for (obs::Json& item : value.as_array()) strip_timing(item);
  }
}

/// The first span labelled `label` below `node` (depth-first), or nullptr.
const obs::Json* find_span(const obs::Json& node, const std::string& label) {
  const obs::Json* children = node.find("children");
  if (children == nullptr) return nullptr;
  for (const obs::Json& child : children->as_array()) {
    if (child.find("label")->as_string() == label) return &child;
    if (const obs::Json* found = find_span(child, label)) return found;
  }
  return nullptr;
}

/// run_cli with std::cerr captured into `err`.
int run_cli_capturing_stderr(std::vector<std::string> args, std::string& err) {
  std::ostringstream captured;
  std::streambuf* saved = std::cerr.rdbuf(captured.rdbuf());
  const int code = run_cli(std::move(args));
  std::cerr.rdbuf(saved);
  err = captured.str();
  return code;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Each test gets its own file family: ctest runs the cases as parallel
    // processes, and a shared path would let one test's SetUp/TearDown race
    // another's reads.
    dir_ = ::testing::TempDir() + "drep_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    problem_ = dir_ + "_problem.drp";
    ASSERT_EQ(run_cli({"generate", "--sites=10", "--objects=12", "--seed=3",
                       "-o", problem_}),
              0);
  }
  void TearDown() override { std::remove(problem_.c_str()); }

  std::string dir_;
  std::string problem_;
};

TEST_F(CliTest, SolveGraWritesAReportWithMetricsAndSpans) {
  const std::string report_path = dir_ + "_run.json";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=gra", "--generations=4",
                     "--population=6", "--report=" + report_path}),
            0);
  const obs::Json report = load_json(report_path);
  EXPECT_EQ(report.find("schema_version")->as_number(), 1.0);
  EXPECT_EQ(report.find("tool")->as_string(), "drep");
  EXPECT_EQ(report.find("command")->as_string(), "solve");
  EXPECT_EQ(report.find("config")->find("algo")->as_string(), "gra");
  EXPECT_GT(report.find("result")->find("cost")->as_number(), 0.0);
  EXPECT_EQ(report.find("result")
                ->find("best_fitness_history")
                ->as_array()
                .size(),
            5u);  // generations + 1
#if !defined(DREP_OBS_DISABLED)
  const auto& metrics = report.find("metrics")->as_object();
  std::size_t drep_metrics = 0;
  for (const auto& [name, value] : metrics) {
    if (name.rfind("drep_", 0) == 0) ++drep_metrics;
  }
  EXPECT_GE(drep_metrics, 10u);
  ASSERT_NE(report.find("metrics")->find("drep_gra_evaluations_total"),
            nullptr);
  EXPECT_GT(
      report.find("metrics")->find("drep_gra_evaluations_total")->as_number(),
      0.0);
  // The span tree holds cli/solve -> gra/solve with positive wall time.
  const obs::Json* spans = report.find("spans");
  const auto& top = spans->find("children")->as_array();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].find("label")->as_string(), "cli/solve");
  EXPECT_GE(top[0].find("seconds")->as_number(), 0.0);
  EXPECT_FALSE(top[0].find("children")->as_array().empty());
  // Every phase of a generation runs under its own span, once per
  // generation.
  const obs::Json* generation = find_span(top[0], "gra/generation");
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(generation->find("count")->as_number(), 4.0);
  for (const char* phase :
       {"gra/crossover", "gra/mutate", "gra/evaluate", "gra/select"}) {
    const obs::Json* span = find_span(*generation, phase);
    ASSERT_NE(span, nullptr) << phase;
    EXPECT_EQ(span->find("count")->as_number(), 4.0) << phase;
    EXPECT_GE(span->find("seconds")->as_number(), 0.0) << phase;
  }
#endif
  std::remove(report_path.c_str());
}

TEST_F(CliTest, ReportIsStableAcrossSameSeedRuns) {
  const std::string first = dir_ + "_first.json";
  const std::string second = dir_ + "_second.json";
  const std::vector<std::string> base{"solve",           "-i",
                                      problem_,          "--algo=gra",
                                      "--generations=3", "--population=4",
                                      "--seed=11"};
  auto args = base;
  args.push_back("--report=" + first);
  ASSERT_EQ(run_cli(args), 0);
  args = base;
  args.push_back("--report=" + second);
  ASSERT_EQ(run_cli(args), 0);

  obs::Json a = load_json(first);
  obs::Json b = load_json(second);
  // The config captures the report path itself; normalize it.
  a["config"] = obs::Json();
  b["config"] = obs::Json();
  strip_timing(a);
  strip_timing(b);
  EXPECT_EQ(a.dump(2), b.dump(2));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST_F(CliTest, SolveWithoutOutputFlagIsAccepted) {
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra"}), 0);
}

TEST_F(CliTest, SolveAgraProducesAValidScheme) {
  const std::string scheme = dir_ + "_agra.drs";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=agra", "--mini=2", "-o",
                     scheme}),
            0);
  EXPECT_EQ(run_cli({"evaluate", "-i", problem_, "-s", scheme}), 0);
  std::remove(scheme.c_str());
}

TEST_F(CliTest, ReplayReportCarriesReplayMetrics) {
  const std::string report_path = dir_ + "_replay.json";
  ASSERT_EQ(
      run_cli({"replay", "-i", problem_, "--report=" + report_path}), 0);
  const obs::Json report = load_json(report_path);
  EXPECT_EQ(report.find("command")->as_string(), "replay");
  EXPECT_GT(report.find("result")->find("requests")->as_number(), 0.0);
#if !defined(DREP_OBS_DISABLED)
  const obs::Json* requests =
      report.find("metrics")->find("drep_replay_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->as_number(),
            report.find("result")->find("requests")->as_number());
  const obs::Json* latency =
      report.find("metrics")->find("drep_replay_read_latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->find("count")->as_number(), 0.0);
#endif
  std::remove(report_path.c_str());
}

TEST_F(CliTest, ReplayWithFaultsReportsFaultCounters) {
  const std::string report_path = dir_ + "_faulty.json";
  ASSERT_EQ(run_cli({"replay", "-i", problem_,
                     "--faults=seed=7,drop=0.15,spike=0.05,crash=3@0..40",
                     "--report=" + report_path}),
            0);
  const obs::Json report = load_json(report_path);
  const obs::Json* result = report.find("result");
  ASSERT_NE(result, nullptr);
  for (const char* key : {"dropped_link", "retries", "timeouts", "give_ups",
                          "degraded_reads", "failed_reads", "failed_writes",
                          "stale_updates"}) {
    ASSERT_NE(result->find(key), nullptr) << key;
  }
  // A 15% drop rate over a full trace must actually lose messages and
  // trigger retransmissions.
  EXPECT_GT(result->find("dropped_link")->as_number(), 0.0);
  EXPECT_GT(result->find("retries")->as_number(), 0.0);
  std::remove(report_path.c_str());
}

TEST_F(CliTest, ZeroRateFaultPlanKeepsReplayTrafficExact) {
  const std::string healthy_path = dir_ + "_healthy.json";
  const std::string armed_path = dir_ + "_armed.json";
  ASSERT_EQ(run_cli({"replay", "-i", problem_, "--report=" + healthy_path}),
            0);
  ASSERT_EQ(run_cli({"replay", "-i", problem_, "--faults=seed=3",
                     "--report=" + armed_path}),
            0);
  const obs::Json healthy = load_json(healthy_path);
  const obs::Json armed = load_json(armed_path);
  EXPECT_EQ(armed.find("result")->find("data_traffic")->as_number(),
            healthy.find("result")->find("data_traffic")->as_number());
  EXPECT_EQ(armed.find("result")->find("retries")->as_number(), 0.0);
  EXPECT_EQ(armed.find("result")->find("failed_reads")->as_number(), 0.0);
  std::remove(healthy_path.c_str());
  std::remove(armed_path.c_str());
}

TEST_F(CliTest, AdaptWithFaultsReportsAvailability) {
  const std::string scheme = dir_ + "_adapt.drs";
  const std::string adapted = dir_ + "_adapted.drs";
  const std::string report_path = dir_ + "_adapt.json";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra", "-o", scheme}), 0);
  ASSERT_EQ(run_cli({"adapt", "-i", problem_, "-n", problem_, "-s", scheme,
                     "-o", adapted, "--mini=2", "--faults=crash=1@0..",
                     "--report=" + report_path}),
            0);
  const obs::Json report = load_json(report_path);
  const obs::Json* result = report.find("result");
  ASSERT_NE(result->find("read_availability"), nullptr);
  const double read_availability =
      result->find("read_availability")->as_number();
  EXPECT_GT(read_availability, 0.0);
  EXPECT_LE(read_availability, 1.0);
  ASSERT_NE(result->find("write_availability"), nullptr);
  ASSERT_NE(result->find("objects_lost"), nullptr);
  std::remove(scheme.c_str());
  std::remove(adapted.c_str());
  std::remove(report_path.c_str());
}

TEST_F(CliTest, AdaptRejectsInstancesOfAnotherShape) {
  const std::string scheme = dir_ + "_adapt.drs";
  const std::string adapted = dir_ + "_adapted.drs";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra", "-o", scheme}), 0);
  // OLD is 10 sites x 12 objects; NEW has more objects, fewer, more sites.
  const std::string other = dir_ + "_other.drp";
  for (const auto& [sites, objects] :
       std::vector<std::pair<std::string, std::string>>{
           {"--sites=10", "--objects=14"},
           {"--sites=10", "--objects=9"},
           {"--sites=11", "--objects=12"}}) {
    ASSERT_EQ(run_cli({"generate", sites, objects, "--seed=4", "-o", other}),
              0);
    std::string err;
    EXPECT_EQ(run_cli_capturing_stderr({"adapt", "-i", problem_, "-n", other,
                                        "-s", scheme, "-o", adapted},
                                       err),
              1)
        << sites << " " << objects;
    EXPECT_NE(err.find("NEW is"), std::string::npos) << err;
  }
  std::remove(other.c_str());
  std::remove(scheme.c_str());
  std::remove(adapted.c_str());
}

TEST_F(CliTest, AdaptRejectsANegativeOrNanThreshold) {
  const std::string scheme = dir_ + "_adapt.drs";
  const std::string adapted = dir_ + "_adapted.drs";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra", "-o", scheme}), 0);
  for (const std::string threshold : {"--threshold=-1", "--threshold=nan"}) {
    EXPECT_EQ(run_cli({"adapt", "-i", problem_, "-n", problem_, "-s", scheme,
                       "-o", adapted, threshold}),
              2)
        << threshold;
  }
  std::remove(scheme.c_str());
  std::remove(adapted.c_str());
}

TEST_F(CliTest, AdaptThresholdZeroAdaptsEveryObject) {
  // The monitor's rule: a deviation of 0% reaches a 0% threshold, so even
  // an unchanged instance re-tunes every object; the default leaves it be.
  const std::string scheme = dir_ + "_adapt.drs";
  const std::string adapted = dir_ + "_adapted.drs";
  const std::string report_path = dir_ + "_adapt.json";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra", "-o", scheme}), 0);
  const std::vector<std::string> base{"adapt", "-i", problem_, "-n", problem_,
                                      "-s",    scheme, "-o", adapted,
                                      "--report=" + report_path};
  auto args = base;
  args.push_back("--threshold=0");
  ASSERT_EQ(run_cli(args), 0);
  EXPECT_EQ(load_json(report_path)
                .find("result")
                ->find("changed_objects")
                ->as_number(),
            12.0);
  ASSERT_EQ(run_cli(base), 0);
  EXPECT_EQ(load_json(report_path)
                .find("result")
                ->find("changed_objects")
                ->as_number(),
            0.0);
  std::remove(scheme.c_str());
  std::remove(adapted.c_str());
  std::remove(report_path.c_str());
}

TEST_F(CliTest, ReplayOnlineReportsEngineAndHindsightKeys) {
  const std::string report_path = dir_ + "_online.json";
  ASSERT_EQ(run_cli({"replay", "-i", problem_, "--online", "--trace=flash",
                     "--window=64", "--report=" + report_path}),
            0);
  const obs::Json report = load_json(report_path);
  const obs::Json* result = report.find("result");
  ASSERT_NE(result, nullptr);
  for (const char* key :
       {"online_migrations", "online_evictions", "migration_traffic",
        "online_total_cost", "online_serving_cost", "online_windows",
        "hindsight_total_cost", "competitive_ratio"}) {
    ASSERT_NE(result->find(key), nullptr) << key;
  }
  EXPECT_EQ(result->find("trace_mode")->as_string(), "flash");
  EXPECT_GT(result->find("online_total_cost")->as_number(), 0.0);
  EXPECT_GT(result->find("competitive_ratio")->as_number(), 0.0);
#if !defined(DREP_OBS_DISABLED)
  const obs::Json* migrations =
      report.find("metrics")->find("drep_online_migrations_total");
  ASSERT_NE(migrations, nullptr);
  EXPECT_EQ(migrations->as_number(),
            result->find("online_migrations")->as_number());
#endif
  std::remove(report_path.c_str());
}

TEST_F(CliTest, ReplayOnlineIsSeedStable) {
  const std::string first = dir_ + "_online_first.json";
  const std::string second = dir_ + "_online_second.json";
  for (const std::string& path : {first, second}) {
    ASSERT_EQ(run_cli({"replay", "-i", problem_, "--online",
                       "--trace=drifting", "--seed=5", "--window=32",
                       "--predictions=oracle", "--report=" + path}),
              0);
  }
  obs::Json a = load_json(first);
  obs::Json b = load_json(second);
  strip_timing(a);
  strip_timing(b);
  // The config section embeds each run's own --report path; everything the
  // engine computed must be byte-stable.
  EXPECT_EQ(a.find("result")->dump(), b.find("result")->dump());
  EXPECT_EQ(a.find("metrics")->dump(), b.find("metrics")->dump());
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST_F(CliTest, SolveOnlineAlgoReportsTheCompetitiveRatio) {
  const std::string report_path = dir_ + "_solve_online.json";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=online", "--window=64",
                     "--trust=0.25", "--report=" + report_path}),
            0);
  const obs::Json report = load_json(report_path);
  EXPECT_EQ(report.find("config")->find("algo")->as_string(), "online");
  const obs::Json* result = report.find("result");
  EXPECT_GT(result->find("cost")->as_number(), 0.0);
  ASSERT_NE(result->find("competitive_ratio"), nullptr);
  EXPECT_GT(result->find("competitive_ratio")->as_number(), 0.0);
  ASSERT_NE(result->find("online_migrations"), nullptr);
  EXPECT_EQ(result->find("prediction_source")->as_string(), "ewma");
  std::remove(report_path.c_str());
}

TEST_F(CliTest, MalformedOnlineFlagsExitTwo) {
  EXPECT_EQ(run_cli({"replay", "-i", problem_, "--trace=bogus"}), 2);
  EXPECT_EQ(run_cli({"replay", "-i", problem_, "--online", "--window=0"}), 2);
  EXPECT_EQ(run_cli({"replay", "-i", problem_, "--online", "--trust=1.5"}), 2);
  EXPECT_EQ(
      run_cli({"replay", "-i", problem_, "--online", "--predictions=psychic"}),
      2);
  EXPECT_EQ(run_cli({"replay", "-i", problem_, "--trace=flash", "--phases=0"}),
            2);
}

TEST_F(CliTest, MalformedFaultSpecExitsTwo) {
  EXPECT_EQ(run_cli({"replay", "-i", problem_, "--faults=bogus"}), 2);
  EXPECT_EQ(run_cli({"replay", "-i", problem_, "--faults=drop=2"}), 2);
  EXPECT_EQ(run_cli({"replay", "-i", problem_, "--faults=crash=1@9..3"}), 2);
}

TEST_F(CliTest, PromFlagWritesExpositionText) {
  const std::string prom_path = dir_ + "_metrics.prom";
  ASSERT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra",
                     "--prom=" + prom_path}),
            0);
  const std::string text = read_file(prom_path);
#if !defined(DREP_OBS_DISABLED)
  EXPECT_NE(text.find("# TYPE drep_sra_runs_total counter"),
            std::string::npos);
#endif
  std::remove(prom_path.c_str());
}

TEST_F(CliTest, UsageErrorsExitWithStatusTwo) {
  EXPECT_EQ(run_cli({"frobnicate"}), 2);                       // unknown command
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--bogus=1"}), 2);  // unknown flag
  EXPECT_EQ(run_cli({"solve", "--algo=gra"}), 2);              // missing -i
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--algo=nope"}), 2);  // bad algo
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--seed=abc"}), 2);   // bad number
  EXPECT_EQ(run_cli({"generate", "stray"}), 2);                // bare argument
  EXPECT_EQ(run_cli({"solve", "-i"}), 2);                      // missing value
  EXPECT_EQ(run_cli({}), 2);                                   // no command
}

// Integer flags take decimal digits within their type: a fraction, a sign
// or a value past 2^64 - 1 is a usage error, never truncated or wrapped.
TEST_F(CliTest, IntegerFlagsRejectFractionsNegativesAndOverflow) {
  const std::string out = dir_ + "_integers.drp";
  std::string err;
  EXPECT_EQ(run_cli_capturing_stderr(
                {"generate", "--sites=10.9", "--objects=12", "-o", out}, err),
            2);
  EXPECT_NE(err.find("--sites expects an integer"), std::string::npos) << err;
  EXPECT_EQ(run_cli({"generate", "--sites=10", "--objects=12.5", "-o", out}),
            2);
  EXPECT_EQ(run_cli({"generate", "--sites=5", "--objects=5", "--seed=-1", "-o",
                     out}),
            2);
  EXPECT_EQ(run_cli({"generate", "--sites=5", "--objects=5",
                     "--seed=99999999999999999999999", "-o", out}),
            2);
  EXPECT_FALSE(std::ifstream(out).good());  // no instance was written
  // The whole unsigned range still parses.
  EXPECT_EQ(run_cli({"generate", "--sites=5", "--objects=5",
                     "--seed=18446744073709551615", "-o", out}),
            0);
  std::remove(out.c_str());
}

TEST_F(CliTest, GenerateTreeSolveTreedpRoundTrip) {
  const std::string tree = dir_ + "_tree.drp";
  const std::string dp_report = dir_ + "_treedp.json";
  const std::string sra_report = dir_ + "_sra.json";
  ASSERT_EQ(run_cli({"generate", "--topology=tree", "--sites=10",
                     "--objects=8", "--shape=random", "--fanout=2",
                     "--skew=0.5", "--seed=5", "-o", tree}),
            0);
  ASSERT_EQ(run_cli({"solve", "-i", tree, "--algo=treedp",
                     "--report=" + dp_report}),
            0);
  ASSERT_EQ(run_cli({"solve", "-i", tree, "--algo=sra",
                     "--report=" + sra_report}),
            0);
  const obs::Json dp = load_json(dp_report);
  const obs::Json sra = load_json(sra_report);
  const double dp_cost = dp.find("result")->find("cost")->as_number();
  EXPECT_GT(dp_cost, 0.0);
  // The tree DP is the provable optimum on this instance.
  EXPECT_GE(sra.find("result")->find("cost")->as_number(), dp_cost);
  ASSERT_NE(dp.find("result")->find("dp_runs"), nullptr);
  EXPECT_EQ(dp.find("result")->find("dp_runs")->as_number(), 8.0);
  std::remove(tree.c_str());
  std::remove(dp_report.c_str());
  std::remove(sra_report.c_str());
}

TEST_F(CliTest, TreeGenerationFlagsAreValidated) {
  const std::string out = dir_ + "_bad.drp";
  // Tree-only knobs without --topology=tree are usage errors.
  EXPECT_EQ(run_cli({"generate", "--shape=star", "-o", out}), 2);
  EXPECT_EQ(run_cli({"generate", "--topology=mesh", "-o", out}), 2);
  EXPECT_EQ(run_cli({"generate", "--topology=tree", "--shape=bogus", "-o",
                     out}),
            2);
  // Out-of-range skew: TreeInstanceConfig::validate -> usage error.
  EXPECT_EQ(run_cli({"generate", "--topology=tree", "--skew=3", "-o", out}),
            2);
}

TEST_F(CliTest, ExactSolverBeyondBudgetExitsTwo) {
  // The fixture problem has 10 sites all reading every object: constclients
  // refuses (> 6 clients) and the CLI maps InstanceTooLarge to exit 2.
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--algo=constclients"}), 2);
}

TEST_F(CliTest, AvailabilityTargetSolveRepairsAndReports) {
  // Tree instance (ample capacity, so repair always fits). Site 0 is down
  // for the whole 40-unit horizon, sites 1..9 for half of it: a 0.9 target
  // needs >= 4 half-up replicas per object, so the repair pass must add
  // replicas and report it.
  const std::string tree = dir_ + "_avail.drp";
  const std::string report_path = dir_ + "_avail.json";
  // --update=300: updates dwarf reads, so SRA keeps schemes near
  // primary-only and the availability floor is what forces replication.
  ASSERT_EQ(run_cli({"generate", "--topology=tree", "--sites=10",
                     "--objects=6", "--update=300", "--seed=9", "-o", tree}),
            0);
  ASSERT_EQ(run_cli({"solve", "-i", tree, "--algo=sra",
                     "--avail-target=0.9",
                     "--faults=crash=0@0..40,crash=1@0..20,crash=2@0..20,"
                     "crash=3@0..20,crash=4@0..20,crash=5@0..20,"
                     "crash=6@0..20,crash=7@0..20,crash=8@0..20,"
                     "crash=9@0..20",
                     "--report=" + report_path}),
            0);
  const obs::Json report = load_json(report_path);
  const obs::Json* result = report.find("result");
  ASSERT_NE(result->find("availability_replicas_added"), nullptr);
  EXPECT_GT(result->find("availability_replicas_added")->as_number(), 0.0);
  EXPECT_EQ(result->find("availability_target")->as_number(), 0.9);
  std::remove(tree.c_str());
  std::remove(report_path.c_str());
}

TEST_F(CliTest, AvailabilityFlagPairingIsEnforced) {
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra",
                     "--avail-target=0.9"}),
            2);  // no --faults to derive site availability from
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra",
                     "--faults=crash=0@0..10"}),
            2);  // --faults without --avail-target
  EXPECT_EQ(run_cli({"solve", "-i", problem_, "--algo=sra",
                     "--avail-target=1.5", "--faults=crash=0@0..10"}),
            2);  // target outside [0, 1]
}

TEST_F(CliTest, HelpExitsZero) {
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_EQ(run_cli({"--help"}), 0);
}

TEST_F(CliTest, RuntimeFailuresExitWithStatusOne) {
  EXPECT_EQ(run_cli({"solve", "-i", dir_ + "_missing.drp"}), 1);
}

TEST_F(CliTest, ServeTraceHashIsIdenticalAcrossWorkerCounts) {
  std::vector<std::string> hashes;
  for (const char* workers : {"1", "2", "4"}) {
    const std::string report = dir_ + "_serve_w" + workers + ".json";
    ASSERT_EQ(run_cli({"serve", "-i", problem_, "--mode=trace", "--audit",
                       "--retune-every=500", "--seed=9",
                       "--workers=" + std::string(workers),
                       "--report=" + report}),
              0);
    const obs::Json json = load_json(report);
    const obs::Json* result = json.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_GT(result->find("requests")->as_number(), 0.0);
    const double generations = result->find("generations")->as_number();
    EXPECT_GT(generations, 1.0);
    hashes.push_back(result->find("outcome_hash")->as_string());
#if !defined(DREP_OBS_DISABLED)
    // Each generation's retune splits into solve, freeze and audit spans.
    const obs::Json* retune = find_span(*json.find("spans"), "serve/retune");
    ASSERT_NE(retune, nullptr);
    EXPECT_EQ(retune->find("count")->as_number(), generations);
    for (const char* phase : {"serve/freeze", "serve/audit"}) {
      const obs::Json* span = find_span(*retune, phase);
      ASSERT_NE(span, nullptr) << phase;
      EXPECT_EQ(span->find("count")->as_number(), generations) << phase;
    }
#endif
    std::remove(report.c_str());
  }
  ASSERT_EQ(hashes.size(), 3u);
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

TEST_F(CliTest, ServeTimedReportsThroughputAndPercentiles) {
  const std::string report = dir_ + "_serve_timed.json";
  ASSERT_EQ(run_cli({"serve", "-i", problem_, "--workers=2",
                     "--duration=0.05", "--retune-interval=0.02",
                     "--report=" + report}),
            0);
  const obs::Json json = load_json(report);
  const obs::Json* result = json.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("mode")->as_string(), "timed");
  EXPECT_GT(result->find("requests")->as_number(), 0.0);
  EXPECT_GT(result->find("requests_per_second")->as_number(), 0.0);
  EXPECT_LE(result->find("p50_us")->as_number(),
            result->find("p999_us")->as_number());
  std::remove(report.c_str());
}

TEST_F(CliTest, ServeFlagPairingIsEnforced) {
  // timed-only knobs rejected in trace mode and vice versa; bad mode and
  // bad worker counts are usage errors.
  EXPECT_EQ(run_cli({"serve", "-i", problem_, "--mode=trace",
                     "--duration=1"}),
            2);
  EXPECT_EQ(run_cli({"serve", "-i", problem_, "--retune-every=100"}), 2);
  EXPECT_EQ(run_cli({"serve", "-i", problem_, "--mode=nope"}), 2);
  EXPECT_EQ(run_cli({"serve", "-i", problem_, "--workers=0"}), 2);
  EXPECT_EQ(run_cli({"serve", "-i", problem_, "--algo=bogus"}), 2);
}

}  // namespace
}  // namespace drep::cli
