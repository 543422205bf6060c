// Subprocess tests for the espresso_check executable: exit-code contract (0 clean,
// 1 findings, 2 usage/config errors), --json byte-stability across runs, and the three
// --inject self-test modes mirroring strategy_lint --inject.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace espresso {
namespace {

#ifndef ESPRESSO_CHECK_PATH
#error "ESPRESSO_CHECK_PATH must point at the espresso_check executable"
#endif
#ifndef ESPRESSO_CONFIG_DIR
#error "ESPRESSO_CONFIG_DIR must point at the repository's configs/ directory"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

std::string ConfigPath(const std::string& name) {
  return std::string(ESPRESSO_CONFIG_DIR) + "/" + name;
}

std::string JobArgs() {
  return ConfigPath("model_gpt2.ini") + " " + ConfigPath("gc_dgc.ini") + " " +
         ConfigPath("system_nvlink.ini");
}

RunResult RunCheck(const std::string& args) {
  // Unique per test AND per call: ctest runs the cases of this binary in parallel,
  // so a shared capture file would race.
  static int call_count = 0;
  const std::string out_path =
      ::testing::TempDir() + "/espresso_check_out_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(call_count++) + ".txt";
  const std::string command =
      std::string(ESPRESSO_CHECK_PATH) + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(command.c_str());
  RunResult result;
#ifdef WIFEXITED
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  result.exit_code = status;
#endif
  std::ifstream in(out_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result.output = buffer.str();
  std::remove(out_path.c_str());
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(EspressoCheckCli, CleanRunOverCommittedConfigsExitsZero) {
  const RunResult result = RunCheck(JobArgs());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("options"), std::string::npos) << result.output;
}

TEST(EspressoCheckCli, UsageAndConfigErrorsExitTwo) {
  EXPECT_EQ(RunCheck("").exit_code, 2);
  EXPECT_EQ(RunCheck(JobArgs() + " --inject bogus-mode").exit_code, 2);
  EXPECT_EQ(RunCheck(JobArgs() + " --no-such-flag").exit_code, 2);
  EXPECT_EQ(RunCheck(ConfigPath("does_not_exist.ini") + " " + ConfigPath("gc_dgc.ini") +
                     " " + ConfigPath("system_nvlink.ini"))
                .exit_code,
            2);
}

TEST(EspressoCheckCli, InjectMissingOptionFailsWithSpaceRule) {
  const RunResult result = RunCheck(JobArgs() + " --inject missing-option");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("esc.space-incomplete"), std::string::npos)
      << result.output;
}

TEST(EspressoCheckCli, InjectCostNegativeFailsWithIntervalRule) {
  const RunResult result = RunCheck(JobArgs() + " --inject cost-negative");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("esc.interval-property"), std::string::npos)
      << result.output;
}

TEST(EspressoCheckCli, InjectValidatorSplitFailsWithDifferentialRule) {
  const RunResult result = RunCheck(JobArgs() + " --inject validator-split");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("esc.validator-split"), std::string::npos)
      << result.output;
}

TEST(EspressoCheckCli, JsonReportIsByteStableAcrossRuns) {
  const std::string path_a = ::testing::TempDir() + "/espresso_check_a.json";
  const std::string path_b = ::testing::TempDir() + "/espresso_check_b.json";
  ASSERT_EQ(RunCheck(JobArgs() + " --json " + path_a).exit_code, 0);
  ASSERT_EQ(RunCheck(JobArgs() + " --json " + path_b).exit_code, 0);
  const std::string a = ReadFile(path_a);
  const std::string b = ReadFile(path_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "espresso_check --json must be deterministic";
  EXPECT_NE(a.find("\"stats\""), std::string::npos) << a;
  EXPECT_NE(a.find("\"report\""), std::string::npos) << a;
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(EspressoCheckCli, JsonIsWrittenOnFailureToo) {
  const std::string path = ::testing::TempDir() + "/espresso_check_inject.json";
  const RunResult result =
      RunCheck(JobArgs() + " --inject missing-option --json " + path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("esc.space-incomplete"), std::string::npos) << json;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace espresso
