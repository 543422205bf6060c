// Subprocess tests for the espresso_paper executable: a missing or unknown subcommand is
// a usage error that lists every subcommand, and a deterministic subcommand prints its
// figure and exits 0.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace espresso {
namespace {

#ifndef ESPRESSO_PAPER_PATH
#error "ESPRESSO_PAPER_PATH must point at the espresso_paper executable"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunPaper(const std::string& args) {
  // Unique per test AND per call: ctest runs the cases of this binary in parallel,
  // so a shared capture file would race.
  static int call_count = 0;
  const std::string out_path =
      ::testing::TempDir() + "/espresso_paper_out_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(call_count++) + ".txt";
  const std::string command =
      std::string(ESPRESSO_PAPER_PATH) + " " + args + " > " + out_path + " 2>&1";
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

void ExpectUsage(const RunResult& result) {
  EXPECT_EQ(result.exit_code, 2) << result.output;
  for (const char* name : {"table1", "table5", "table6", "fig10", "fig11", "fig12",
                           "fig13", "fig14", "fig15", "fig16", "optionspace", "ablation",
                           "scaleout", "timelines", "all"}) {
    EXPECT_NE(result.output.find(std::string(" ") + name), std::string::npos)
        << name << " missing from:\n"
        << result.output;
  }
}

TEST(EspressoPaperCli, NoSubcommandIsAUsageError) { ExpectUsage(RunPaper("")); }

TEST(EspressoPaperCli, UnknownSubcommandIsAUsageError) { ExpectUsage(RunPaper("nope")); }

TEST(EspressoPaperCli, Fig11PrintsTheSizeGroups) {
  const RunResult result = RunPaper("fig11");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Figure 11: tensors sharing the same size per model"),
            std::string::npos)
      << result.output;
  for (const char* model : {"vgg16", "resnet101", "ugatit", "bert-base", "gpt2", "lstm"}) {
    EXPECT_NE(result.output.find(std::string("| ") + model + " "), std::string::npos)
        << model << " row missing from:\n"
        << result.output;
  }
}

}  // namespace
}  // namespace espresso
