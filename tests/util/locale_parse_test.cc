// Regression tests for locale-dependent numeric parsing (the de_DE bug).
//
// std::stod follows the process's LC_NUMERIC: under a comma-decimal locale,
// strtod("0.25") stops at the '.' and returns 0.0 — so every fraction in every
// config file, strategy, and job description silently became 0 the moment a
// long-lived service process touched setlocale. The parsers now go through
// std::from_chars (src/util/parse_number.h, the JSON reader), which is
// locale-independent by specification; these tests pin that by running the INI /
// strategy IR / job-config round trips and the Prometheus text check WITH a
// comma-decimal locale installed as the global locale.
//
// The fixture materializes de_DE.UTF-8 on the fly with localedef + LOCPATH, so the
// test runs on minimal containers that ship no locales; when localedef is missing
// or refuses, the locale legs are skipped (the out-of-range legs still run from
// parse_number_test.cc, which needs no locale).
#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/strategy_ir.h"
#include "src/ddl/job_config.h"
#include "src/obs/validate.h"
#include "src/util/config.h"

namespace espresso {
namespace {

// Compiles de_DE.UTF-8 into a temp dir once per process; returns "" on failure.
const std::string& GeneratedLocaleDir() {
  static const std::string dir = [] {
    const char* tmp = std::getenv("TMPDIR");
    std::string d = std::string(tmp != nullptr ? tmp : "/tmp") + "/espresso-locale-XXXXXX";
    if (mkdtemp(d.data()) == nullptr) {
      return std::string();
    }
    const std::string cmd =
        "localedef -i de_DE -f UTF-8 '" + d + "/de_DE.UTF-8' 2>/dev/null";
    if (std::system(cmd.c_str()) != 0) {
      return std::string();
    }
    return d;
  }();
  return dir;
}

class CommaDecimalLocaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_locale_ = std::setlocale(LC_ALL, nullptr);
    // Try locales already installed on the host first.
    for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        active_ = name;
        return;
      }
    }
    // Build one: localedef compiles the de_DE source into a directory that glibc
    // will search via LOCPATH.
    const std::string& dir = GeneratedLocaleDir();
    if (dir.empty()) {
      GTEST_SKIP() << "localedef unavailable; comma-decimal locale leg skipped";
    }
    setenv("LOCPATH", dir.c_str(), 1);
    if (std::setlocale(LC_ALL, "de_DE.UTF-8") == nullptr) {
      GTEST_SKIP() << "generated de_DE.UTF-8 did not load";
    }
    active_ = "de_DE.UTF-8 (generated)";
  }

  void TearDown() override {
    if (!saved_locale_.empty()) {
      std::setlocale(LC_ALL, saved_locale_.c_str());
    }
    unsetenv("LOCPATH");
  }

  // Confirms the fixture actually installed a comma-decimal locale — otherwise the
  // tests below would pass vacuously.
  void AssertCommaLocaleActive() {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.1f", 1.5);
    ASSERT_STREQ(buffer, "1,5") << "locale " << active_ << " is not comma-decimal";
  }

  std::string saved_locale_;
  std::string active_;
};

TEST_F(CommaDecimalLocaleTest, IniDoubleParsesDotDecimal) {
  AssertCommaLocaleActive();
  const ConfigFile config = ConfigFile::ParseString(
      "[compression]\n"
      "ratio = 0.25\n"
      "threshold = 1.5e-3\n");
  ASSERT_TRUE(config.ok());
  // Pre-fix: stod stopped at '.' and returned 0.0 under de_DE.
  EXPECT_EQ(config.GetDouble("compression", "ratio"), 0.25);
  EXPECT_EQ(config.GetDouble("compression", "threshold"), 1.5e-3);
  EXPECT_EQ(config.GetDoubleOr("compression", "ratio", 9.0, 0.0, 1.0), 0.25);
  EXPECT_TRUE(config.warnings().empty());
}

// One tensor whose compress and allreduce ops cover a quarter of it with payloads of an
// eighth: fractions a comma-decimal parser would cut at the decimal point.
StrategyIR FractionalIr() {
  CompressionOption option;
  option.label = "fractional";
  Op compress;
  compress.task = ActionTask::kCompress;
  compress.device = Device::kGpu;
  compress.phase = CommPhase::kFlat;
  compress.domain_fraction = 0.25;
  compress.payload_fraction = 0.125;
  compress.fan_in = 1;
  compress.compressed = true;
  option.ops.push_back(compress);
  Op comm;
  comm.task = ActionTask::kComm;
  comm.routine = Routine::kAllreduce;
  comm.phase = CommPhase::kFlat;
  comm.domain_fraction = 0.25;
  comm.payload_fraction = 0.125;
  comm.fan_in = 1;
  comm.compressed = true;
  option.ops.push_back(comm);
  StrategyIR ir;
  ir.strategy.options.push_back(option);
  return ir;
}

TEST_F(CommaDecimalLocaleTest, StrategyRoundTripPreservesFractions) {
  AssertCommaLocaleActive();
  const StrategyIR ir = FractionalIr();
  const std::string text = StrategyIRToString(ir);
  EXPECT_NE(text.find("\"domain\": 0.25,"), std::string::npos) << text;
  const StrategyIRParseResult parsed = ParseStrategyIR(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const Strategy& strategy = parsed.ir.strategy;
  ASSERT_EQ(strategy.options.size(), 1u);
  ASSERT_EQ(strategy.options[0].ops.size(), 2u);
  // A comma-decimal parse would bring domain/payload back as 0.0 (then fail the (0,1]
  // range check).
  EXPECT_DOUBLE_EQ(strategy.options[0].ops[0].domain_fraction, 0.25);
  EXPECT_DOUBLE_EQ(strategy.options[0].ops[0].payload_fraction, 0.125);
  EXPECT_TRUE(strategy.options[0] == ir.strategy.options[0]);
  EXPECT_EQ(StrategyIRToString(parsed.ir), text);
}

TEST_F(CommaDecimalLocaleTest, JobConfigRoundTripPreservesFractions) {
  AssertCommaLocaleActive();
  const ConfigFile model = ConfigFile::ParseString(
      "[model]\n"
      "label = tiny\n"
      "forward_ms = 12.5\n"
      "[tensors]\n"
      "fc.weight = 1024, 0.75\n");
  const ConfigFile gc = ConfigFile::ParseString(
      "[compression]\n"
      "algorithm = randomk\n"
      "ratio = 0.05\n");
  const ConfigFile system = ConfigFile::ParseString(
      "[cluster]\n"
      "testbed = nvlink\n"
      "inter_gbps = 25.5\n");
  const JobConfigResult result = LoadJobConfig(model, gc, system);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_DOUBLE_EQ(result.job.model.forward_time_s, 12.5e-3);
  ASSERT_EQ(result.job.model.tensors.size(), 1u);
  EXPECT_DOUBLE_EQ(result.job.model.tensors[0].backward_time_s, 0.75e-3);
  EXPECT_DOUBLE_EQ(result.job.compressor.ratio, 0.05);
  EXPECT_DOUBLE_EQ(result.job.cluster.inter.bytes_per_second, 25.5e9 / 8.0);
}

TEST_F(CommaDecimalLocaleTest, PrometheusSampleValuesParseDotDecimal) {
  AssertCommaLocaleActive();
  // Pre-fix: strtod stopped at '.', so this line failed with "bad sample value".
  const obs::ValidationResult r = obs::ValidatePrometheusText("demo_ratio 0.5\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.samples, 1u);
}

// Out-of-range tokens diagnose (no locale needed, but run under the comma locale to
// cover both defects at once — the pre-fix code threw std::out_of_range here).
TEST_F(CommaDecimalLocaleTest, OutOfRangeTokensDiagnose) {
  AssertCommaLocaleActive();
  const ConfigFile config = ConfigFile::ParseString(
      "[compression]\n"
      "ratio = 1e999\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.GetDouble("compression", "ratio"), std::nullopt);
  EXPECT_EQ(config.GetDoubleOr("compression", "ratio", 0.5, 0.0, 1.0), 0.5);
  ASSERT_EQ(config.warnings().size(), 1u);
  EXPECT_NE(config.warnings()[0].find("out of range"), std::string::npos);
  EXPECT_NE(config.warnings()[0].find("line 2"), std::string::npos);

  std::string text = StrategyIRToString(FractionalIr());
  const std::string domain = "\"domain\": 0.25,";
  const size_t at = text.find(domain);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, domain.size(), "\"domain\": 1e999,");
  const StrategyIRParseResult parsed = ParseStrategyIR(text);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("out of range"), std::string::npos) << parsed.error;

  const ConfigFile model = ConfigFile::ParseString(
      "[model]\n"
      "label = tiny\n"
      "[tensors]\n"
      "fc.weight = 99999999999999999999, 0.75\n");
  const ConfigFile gc = ConfigFile::ParseString("[compression]\nratio = 0.5\n");
  const ConfigFile system = ConfigFile::ParseString("[cluster]\ntestbed = nvlink\n");
  const JobConfigResult result = LoadJobConfig(model, gc, system);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace espresso
