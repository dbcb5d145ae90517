// Smoke test for the bench harness: runs every bench binary with --quick
// (paper tables only, no timer loops) and asserts a clean exit, so benches
// can never silently bit-rot again. Also exercises the shared --json flag.
//
// The bench binary directory (CQBOUNDS_BENCH_DIR) and the comma-joined bench
// name list (CQBOUNDS_BENCH_LIST, single-sourced from bench/CMakeLists.txt's
// CQBOUNDS_BENCHES) are injected by tests/CMakeLists.txt; the test is skipped
// from the build entirely when CQBOUNDS_BUILD_BENCH=OFF.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace cqbounds {
namespace {

std::vector<std::string> BenchNames() {
  std::vector<std::string> names;
  std::istringstream in(CQBOUNDS_BENCH_LIST);
  for (std::string name; std::getline(in, name, ',');) {
    if (!name.empty()) names.push_back(name);
  }
  return names;
}

std::string BenchPath(const std::string& name) {
  return std::string(CQBOUNDS_BENCH_DIR) + "/" + name;
}

// Runs `command`, capturing combined stdout+stderr into `output`; returns the
// process exit code (or -1 if the shell could not be started). The capture
// file is unique per process and call: ctest runs the smoke tests of this
// binary concurrently, so a shared name would race.
int RunCommand(const std::string& command, std::string* output) {
  static int call_count = 0;
  const std::string tmp = std::string(CQBOUNDS_BENCH_DIR) + "/smoke_output." +
                          std::to_string(getpid()) + "." +
                          std::to_string(call_count++) + ".tmp";
  const int rc =
      std::system((command + " > '" + tmp + "' 2>&1").c_str());
  std::ifstream in(tmp);
  std::ostringstream captured;
  captured << in.rdbuf();
  *output = captured.str();
  std::remove(tmp.c_str());
  if (rc == -1) return -1;
  // A signal-killed bench must not look like exit 0 (WEXITSTATUS alone
  // reads 0 for signal terminations).
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(BenchSmokeTest, EveryBenchRunsQuickAndExitsZero) {
  const std::vector<std::string> benches = BenchNames();
  ASSERT_GE(benches.size(), 11u);  // All seed benches must be in the sweep.
  for (const std::string& bench : benches) {
    std::string output;
    const int rc = RunCommand("'" + BenchPath(bench) + "' --quick", &output);
    EXPECT_EQ(rc, 0) << bench << " --quick failed; output:\n" << output;
    EXPECT_NE(output.find("[--quick]"), std::string::npos)
        << bench << " did not go through CQB_BENCH_MAIN's --quick path";
  }
}

TEST(BenchSmokeTest, JsonFlagWritesParsableTableDump) {
  const std::string json_path =
      std::string(CQBOUNDS_BENCH_DIR) + "/smoke_e1.json";
  std::string output;
  const int rc = RunCommand("'" + BenchPath("bench_e1_agm_size") +
                                "' --quick --json '" + json_path + "'",
                            &output);
  ASSERT_EQ(rc, 0) << output;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "missing " << json_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::remove(json_path.c_str());

  EXPECT_NE(json.find("\"bench\": \"bench_e1_agm_size\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(json.find("\"tables\""), std::string::npos);
  EXPECT_NE(json.find("\"headers\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  // The timers section exists even when no timed sections are registered.
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
}

TEST(BenchSmokeTest, QuickJsonStillCarriesTimedSections) {
  // Regression guard for the "--quick skips timer registration" bug: timed
  // sections (CQB_BENCH_TIMED) must run -- and land in the JSON dump -- in
  // quick mode too, so baseline refreshes track wall times, not just
  // tables. bench_e3 registers tw_exact/* sections.
  const std::string json_path =
      std::string(CQBOUNDS_BENCH_DIR) + "/smoke_e3.json";
  std::string output;
  const int rc = RunCommand("'" + BenchPath("bench_e3_tw_blowup") +
                                "' --quick --json '" + json_path + "'",
                            &output);
  ASSERT_EQ(rc, 0) << output;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "missing " << json_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::remove(json_path.c_str());

  EXPECT_NE(json.find("\"timers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"tw_exact/petersen\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"reps\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"seconds_per_rep\""), std::string::npos);
  // Every timer carries its min and median rep next to the mean.
  EXPECT_NE(json.find("\"min_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"median_seconds\""), std::string::npos);
  // And the sections were actually executed on the way.
  EXPECT_NE(output.find("Timed sections"), std::string::npos) << output;
}

}  // namespace
}  // namespace cqbounds
