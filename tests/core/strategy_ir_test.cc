// The versioned strategy IR: canonical byte-stable writing, lossless round-trips,
// strict fail-closed parsing (unknown versions, unknown/duplicate keys, out-of-range
// values, tampered digests — all refused with line-level diagnostics), and atomic file
// publication.
#include "src/core/strategy_ir.h"

#include <gtest/gtest.h>

#include <string>

#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/core/espresso.h"
#include "src/core/eval_cache.h"
#include "src/models/model_zoo.h"
#include "src/util/atomic_file.h"

namespace espresso {
namespace {

struct IrFixture {
  ModelProfile model = Lstm();
  ClusterSpec cluster = NvlinkCluster(2, 2);
  CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
  std::unique_ptr<Compressor> compressor = CreateCompressor(gc);

  StrategyIR Compile() const {
    EspressoSelector selector(model, cluster, *compressor);
    const SelectionResult result = selector.Select();
    StrategyProvenance provenance;
    provenance.origin = "test";
    provenance.selector = "espresso";
    provenance.iteration = 42;
    provenance.drift = 0.125;
    return CompileStrategyIR(result.strategy, result.iteration_time, model, cluster, gc,
                             provenance);
  }
};

void ExpectIrEqual(const StrategyIR& a, const StrategyIR& b) {
  EXPECT_EQ(a.schema_version, b.schema_version);
  EXPECT_EQ(a.model_digest, b.model_digest);
  EXPECT_EQ(a.cluster_digest, b.cluster_digest);
  EXPECT_EQ(a.compression_digest, b.compression_digest);
  EXPECT_DOUBLE_EQ(a.fs_score, b.fs_score);
  EXPECT_TRUE(a.provenance == b.provenance);
  ASSERT_EQ(a.strategy.options.size(), b.strategy.options.size());
  for (size_t t = 0; t < a.strategy.options.size(); ++t) {
    EXPECT_TRUE(a.strategy.options[t] == b.strategy.options[t]) << "tensor " << t;
    EXPECT_EQ(a.strategy.options[t].flat, b.strategy.options[t].flat);
    EXPECT_EQ(a.strategy.options[t].label, b.strategy.options[t].label);
  }
  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
}

TEST(StrategyIr, WriterIsByteStable) {
  const IrFixture fixture;
  const StrategyIR ir = fixture.Compile();
  const std::string first = StrategyIRToString(ir);
  const std::string second = StrategyIRToString(ir);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first.back(), '\n');
  // Round-tripping through the parser and re-serializing reproduces the exact bytes —
  // the canonical form is a fixed point.
  const StrategyIRParseResult parsed = ParseStrategyIR(first);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(StrategyIRToString(parsed.ir), first);
}

TEST(StrategyIr, RoundTripsLosslessly) {
  const IrFixture fixture;
  const StrategyIR ir = fixture.Compile();
  const StrategyIRParseResult parsed = ParseStrategyIR(StrategyIRToString(ir));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExpectIrEqual(ir, parsed.ir);
  EXPECT_EQ(StrategyFingerprint(ir.strategy), StrategyFingerprint(parsed.ir.strategy));
}

TEST(StrategyIr, DigestsTrackTheConfiguration) {
  const IrFixture fixture;
  // Same config -> same digest; any semantic change -> different digest.
  EXPECT_EQ(ModelDigest(fixture.model), ModelDigest(fixture.model));
  ModelProfile renamed = fixture.model;
  renamed.tensors[0].elements += 1;
  EXPECT_NE(ModelDigest(fixture.model), ModelDigest(renamed));

  EXPECT_EQ(ClusterDigest(fixture.cluster), ClusterDigest(fixture.cluster));
  ClusterSpec slower = fixture.cluster;
  slower.inter.bytes_per_second *= 0.5;
  EXPECT_NE(ClusterDigest(fixture.cluster), ClusterDigest(slower));

  EXPECT_EQ(CompressionDigest(fixture.gc), CompressionDigest(fixture.gc));
  CompressorConfig denser = fixture.gc;
  denser.ratio = 0.05;
  EXPECT_NE(CompressionDigest(fixture.gc), CompressionDigest(denser));
}

TEST(StrategyIr, ContentDigestCoversLabelsAndProvenance) {
  const IrFixture fixture;
  const StrategyIR ir = fixture.Compile();
  StrategyIR relabeled = ir;
  relabeled.strategy.options[0].label += "-renamed";
  // The eval-cache fingerprint ignores labels; the IR payload digest must not.
  EXPECT_EQ(StrategyFingerprint(ir.strategy), StrategyFingerprint(relabeled.strategy));
  EXPECT_NE(ir.ContentDigest(), relabeled.ContentDigest());

  StrategyIR reattributed = ir;
  reattributed.provenance.iteration += 1;
  EXPECT_NE(ir.ContentDigest(), reattributed.ContentDigest());
}

TEST(StrategyIr, RejectsUnknownSchemaVersion) {
  const IrFixture fixture;
  std::string text = StrategyIRToString(fixture.Compile());
  const std::string needle = "\"espresso_strategy_ir\": 1";
  const size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"espresso_strategy_ir\": 2");
  const StrategyIRParseResult parsed = ParseStrategyIR(text);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("schema version"), std::string::npos) << parsed.error;
}

TEST(StrategyIr, RejectsTamperedOps) {
  const IrFixture fixture;
  std::string text = StrategyIRToString(fixture.Compile());
  // Change one op's fan-in: the embedded strategy fingerprint no longer matches.
  const size_t at = text.find("\"fan_in\": 1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 11, "\"fan_in\": 3");
  const StrategyIRParseResult parsed = ParseStrategyIR(text);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("fingerprint mismatch"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("line"), std::string::npos) << parsed.error;

  // --force-digest posture: digest verification off, structural checks still on.
  StrategyIRParseOptions forced;
  forced.verify_payload_digest = false;
  EXPECT_TRUE(ParseStrategyIR(text, forced).ok);
}

TEST(StrategyIr, RejectsTamperedLabels) {
  const IrFixture fixture;
  std::string text = StrategyIRToString(fixture.Compile());
  // A label edit is invisible to the fingerprint (labels are cosmetic to the eval
  // cache) but MUST trip the payload digest: the document was altered.
  const size_t at = text.find("\"label\": \"");
  ASSERT_NE(at, std::string::npos);
  text.insert(at + 10, "x");
  const StrategyIRParseResult parsed = ParseStrategyIR(text);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("payload digest mismatch"), std::string::npos)
      << parsed.error;
}

TEST(StrategyIr, RejectsStructuralDamageWithLineDiagnostics) {
  const IrFixture fixture;
  const std::string text = StrategyIRToString(fixture.Compile());
  StrategyIRParseOptions lax;  // structural strictness must not depend on digests
  lax.verify_payload_digest = false;

  struct Mutation {
    const char* needle;
    const char* replacement;
  };
  const Mutation mutations[] = {
      {"\"fs_score\"", "\"fs_scores\""},              // unknown key (missing required)
      {"\"domain\": 1,", "\"domain\": -1,"},          // out-of-range fraction
      {"\"task\": \"comm\"", "\"task\": \"warp\""},   // unknown enum token
      {"\"index\": 0", "\"index\": 7"},               // non-dense tensor index
      {"\"flat\": false", "\"flat\": \"false\""},     // wrong type
      {"\"phase\": \"intra1\"", "\"phase\": \"intra1\", \"phase\": \"intra1\""},  // dup
  };
  for (const Mutation& m : mutations) {
    std::string damaged = text;
    const size_t at = damaged.find(m.needle);
    ASSERT_NE(at, std::string::npos) << m.needle;
    damaged.replace(at, std::string(m.needle).size(), m.replacement);
    const StrategyIRParseResult parsed = ParseStrategyIR(damaged, lax);
    EXPECT_FALSE(parsed.ok) << "accepted mutation of " << m.needle;
    EXPECT_NE(parsed.error.find("line"), std::string::npos)
        << m.needle << " -> " << parsed.error;
  }

  EXPECT_FALSE(ParseStrategyIR("", lax).ok);
  EXPECT_FALSE(ParseStrategyIR("{}", lax).ok);
  EXPECT_FALSE(ParseStrategyIR("[]", lax).ok);
}

TEST(StrategyIr, FileRoundTripIsAtomic) {
  const IrFixture fixture;
  const StrategyIR ir = fixture.Compile();
  const std::string path = ::testing::TempDir() + "/strategy_ir_atomic.json";
  std::string error;
  ASSERT_TRUE(WriteStrategyIRFile(path, ir, &error)) << error;
  const StrategyIRParseResult parsed = ReadStrategyIRFile(path);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ExpectIrEqual(ir, parsed.ir);

  // A writer dying mid-rewrite leaves the previous complete document on disk.
  StrategyIR changed = ir;
  changed.provenance.origin = "never-published";
  internal::g_atomic_write_fail_after_bytes = 10;
  EXPECT_FALSE(WriteStrategyIRFile(path, changed, &error));
  const StrategyIRParseResult survivor = ReadStrategyIRFile(path);
  ASSERT_TRUE(survivor.ok) << survivor.error;
  EXPECT_EQ(survivor.ir.provenance.origin, "test");
  std::remove(path.c_str());
}

TEST(StrategyIr, MissingFileReportsPath) {
  const StrategyIRParseResult r = ReadStrategyIRFile("/nonexistent/strategy.json");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("/nonexistent"), std::string::npos) << r.error;
}

TEST(StrategyIr, DigestHexFormatsSixteenLowercaseDigits) {
  EXPECT_EQ(DigestHex(0), "0000000000000000");
  EXPECT_EQ(DigestHex(0xdeadbeef01234567ull), "deadbeef01234567");
}

// Strategy I/O: every strategy the system produces comes back from the IR unchanged,
// and a malformed strategy is refused with a diagnostic.
Strategy RoundTripped(const Strategy& strategy) {
  StrategyIR ir;
  ir.strategy = strategy;
  const StrategyIRParseResult parsed = ParseStrategyIR(StrategyIRToString(ir));
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.ir.strategy;
}

void ExpectStrategiesEqual(const Strategy& a, const Strategy& b) {
  ASSERT_EQ(a.options.size(), b.options.size());
  for (size_t t = 0; t < a.options.size(); ++t) {
    EXPECT_TRUE(a.options[t] == b.options[t]) << "tensor " << t;
    EXPECT_EQ(a.options[t].flat, b.options[t].flat);
    EXPECT_EQ(a.options[t].label, b.options[t].label);
  }
}

TEST(StrategyIo, RoundTripsBaselineStrategies) {
  const ModelProfile model = Lstm();
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor = CreateCompressor(CompressorConfig{.algorithm = "dgc"});
  for (const Strategy& strategy :
       {Fp32Strategy(model, cluster), HiPressStrategy(model, cluster, *compressor),
        BytePSCompressStrategy(model, cluster, *compressor)}) {
    ExpectStrategiesEqual(strategy, RoundTripped(strategy));
  }
}

TEST(StrategyIo, RoundTripsSelectedStrategy) {
  // The Figure-6 hand-off: select offline, serialize, load, and verify the timeline
  // engine prices both identically.
  const ModelProfile model = Vgg16();
  const ClusterSpec cluster = PcieCluster();
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.01});
  EspressoSelector selector(model, cluster, *compressor);
  const Strategy selected = selector.Select().strategy;
  const Strategy loaded = RoundTripped(selected);
  ExpectStrategiesEqual(selected, loaded);
  EXPECT_EQ(selector.evaluator().IterationTime(selected),
            selector.evaluator().IterationTime(loaded));
}

TEST(StrategyIo, RoundTripsEveryEnumeratedOption) {
  const TreeConfig config{4, 4, true};
  for (const CompressionOption& option : EnumerateOptions(config).options) {
    Strategy strategy;
    strategy.options = {option};
    const Strategy loaded = RoundTripped(strategy);
    ASSERT_EQ(loaded.options.size(), 1u) << option.Describe();
    EXPECT_TRUE(loaded.options[0] == option) << option.Describe();
  }
}

TEST(StrategyIo, RejectsMalformedInput) {
  StrategyIR ir;
  ir.strategy.options = {DefaultUncompressedOption(TreeConfig{2, 2, false})};
  const std::string text = StrategyIRToString(ir);
  StrategyIRParseOptions lax;  // these refusals must not depend on the digest
  lax.verify_payload_digest = false;
  auto damaged = [&](const std::string& needle, const std::string& replacement) {
    std::string out = text;
    const size_t at = out.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    if (at != std::string::npos) {
      out.replace(at, needle.size(), replacement);
    }
    return out;
  };
  const size_t ops_begin = text.find("\"ops\": [");
  const size_t ops_end = text.find(']', ops_begin);
  ASSERT_NE(ops_end, std::string::npos);
  const std::string no_ops =
      text.substr(0, ops_begin) + "\"ops\": []" + text.substr(ops_end + 1);
  for (const std::string& document :
       {std::string(), no_ops,
        damaged("\"routine\": \"reduce-scatter\"", "\"routine\": \"warp\""),
        damaged("\"domain\": 1,", "\"domain\": \"x\","),
        damaged("\"fan_in\": 1,", "\"fan_in\": 1.5,")}) {
    const StrategyIRParseResult parsed = ParseStrategyIR(document, lax);
    EXPECT_FALSE(parsed.ok) << document;
    EXPECT_FALSE(parsed.error.empty());
  }
  // Without its tensor the document is well-formed, but no longer the strategy the
  // payload digest stamps.
  const std::string no_tensors =
      text.substr(0, text.find("\"tensors\": [")) + "\"tensors\": []\n}\n";
  const StrategyIRParseResult dropped = ParseStrategyIR(no_tensors);
  EXPECT_FALSE(dropped.ok);
  EXPECT_FALSE(dropped.error.empty());
}

}  // namespace
}  // namespace espresso
