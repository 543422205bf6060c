// Fuzz-style robustness for the strategy IR parser, the one strategy format and the one
// read from outside the process (--ir-in, strategy_lint --ir): a
// torn, duplicated, or bit-flipped document must come back as {ok=false, error}, or
// parse cleanly when the damage happened to be benign — never crash, hang, or abort.
// Every document is parsed with and without payload-digest verification, and a
// document that passes verification must re-serialize to the seed's exact bytes: the
// digest admits no changed content. Runs under the sanitizer CI jobs, so any
// out-of-bounds read or UB in the parser fails loudly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/espresso.h"
#include "src/core/strategy_ir.h"
#include "src/models/model_zoo.h"
#include "src/util/rng.h"

namespace espresso {
namespace {

const std::string& SeedDocument() {
  static const std::string document = [] {
    const ModelProfile model = Lstm();
    const ClusterSpec cluster = NvlinkCluster(2, 2);
    const CompressorConfig gc{.algorithm = "dgc", .ratio = 0.01};
    const auto compressor = CreateCompressor(gc);
    EspressoSelector selector(model, cluster, *compressor);
    const SelectionResult result = selector.Select();
    StrategyProvenance provenance;
    provenance.origin = "fuzz";
    provenance.selector = "espresso";
    return StrategyIRToString(CompileStrategyIR(result.strategy, result.iteration_time,
                                                model, cluster, gc, provenance));
  }();
  return document;
}

// Parses `text` in both digest modes; returns how many of the two parses succeeded.
int ParseBothWays(const std::string& text) {
  int accepted = 0;
  for (const bool verify : {true, false}) {
    StrategyIRParseOptions options;
    options.verify_payload_digest = verify;
    const StrategyIRParseResult result = ParseStrategyIR(text, options);
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty()) << "refusal without a diagnostic";
      continue;
    }
    ++accepted;
    if (verify) {
      EXPECT_EQ(StrategyIRToString(result.ir), SeedDocument())
          << "a digest-verified document changed content:\n" << text;
    }
  }
  return accepted;
}

void MustNotCrash(const std::string& text) { ParseBothWays(text); }

void MustReject(const std::string& text, const std::string& what) {
  EXPECT_EQ(ParseBothWays(text), 0) << what;
}

// `document` with the first occurrence of `needle` replaced by `replacement`.
std::string Replaced(std::string document, const std::string& needle,
                     const std::string& replacement) {
  const size_t at = document.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  if (at != std::string::npos) {
    document.replace(at, needle.size(), replacement);
  }
  return document;
}

std::vector<std::string> Lines(const std::string& document) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < document.size()) {
    size_t end = document.find('\n', start);
    if (end == std::string::npos) end = document.size();
    lines.push_back(document.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(StrategyIoFuzz, SurvivesEveryPrefixTruncation) {
  const std::string& document = SeedDocument();
  ASSERT_EQ(ParseBothWays(document), 2);
  for (size_t cut = 0; cut < document.size(); ++cut) {
    MustNotCrash(document.substr(0, cut));
  }
}

TEST(StrategyIoFuzz, SurvivesEverySuffixTruncation) {
  const std::string& document = SeedDocument();
  for (size_t cut = 0; cut < document.size(); cut += 7) {
    MustNotCrash(document.substr(cut));
  }
}

TEST(StrategyIoFuzz, RejectsDuplicatedTensorSections) {
  const std::string& document = SeedDocument();
  // Tensor 0's record appended again at the end of the tensors array: its index no
  // longer matches its position.
  const size_t begin = document.find("    {\n      \"index\": 0,");
  ASSERT_NE(begin, std::string::npos);
  const size_t end = document.find("    {\n      \"index\": 1,", begin);
  ASSERT_NE(end, std::string::npos);
  const std::string record = document.substr(begin, end - begin);  // ends with "},\n"
  const size_t array_end = document.rfind("\n  ]");
  ASSERT_NE(array_end, std::string::npos);
  std::string duplicated = document;
  duplicated.insert(array_end, ",\n" + record.substr(0, record.rfind('}') + 1));
  MustReject(duplicated, "duplicated tensor record");
  // The same record twice in a row, and a duplicated key.
  std::string doubled = document;
  doubled.insert(begin, record);
  MustReject(doubled, "doubled tensor record");
  MustReject(Replaced(document, "\"flat\": ", "\"flat\": false, \"flat\": "),
             "duplicated key");
}

TEST(StrategyIoFuzz, RejectsTensorCountMismatches) {
  const std::string& document = SeedDocument();
  for (const char* index : {"1", "7", "1000000", "-1", "1e999", "18446744073709551616",
                            "0.5", "\"0\""}) {
    MustReject(Replaced(document, "\"index\": 0,", std::string("\"index\": ") + index + ","),
               std::string("index ") + index);
  }
  // Dropping the last tensor record leaves a well-formed but shorter strategy, which
  // the payload digest refuses.
  const size_t last = document.rfind(",\n    {\n      \"index\": ");
  ASSERT_NE(last, std::string::npos);
  const size_t array_end = document.rfind("\n  ]");
  std::string shorter = document;
  shorter.erase(last, array_end - last);
  StrategyIRParseOptions verify;
  EXPECT_FALSE(ParseStrategyIR(shorter, verify).ok);
  MustNotCrash(shorter);
}

TEST(StrategyIoFuzz, SurvivesDeterministicByteMutations) {
  const std::string& document = SeedDocument();
  // Deterministic single-byte mutations across the whole document: overwrite with a
  // byte drawn from a seeded RNG (JSON structure, digits, NULs). Most damage must be
  // rejected; occasionally a mutation is benign — both outcomes are fine, crashing or
  // a verified change of content is not.
  Rng rng(0x1f'f00d);
  const char alphabet[] = "\0\n\t {}[]\":,.-+eE0123456789abcdefxyz\\";
  for (size_t i = 0; i < document.size(); ++i) {
    std::string mutated = document;
    mutated[i] = alphabet[rng.UniformInt(0, sizeof(alphabet) - 1)];
    MustNotCrash(mutated);
  }
}

TEST(StrategyIoFuzz, SurvivesLineDeletionsAndSwaps) {
  const std::vector<std::string> lines = Lines(SeedDocument());
  ASSERT_GT(lines.size(), 4u);
  for (size_t drop = 0; drop < lines.size(); ++drop) {
    std::string damaged;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i != drop) damaged += lines[i] + "\n";
    }
    MustNotCrash(damaged);
  }
  for (size_t swap = 0; swap + 1 < lines.size(); swap += 3) {
    std::vector<std::string> reordered = lines;
    std::swap(reordered[swap], reordered[swap + 1]);
    std::string damaged;
    for (const std::string& line : reordered) damaged += line + "\n";
    MustNotCrash(damaged);
  }
}

TEST(StrategyIoFuzz, SurvivesPathologicalDocuments) {
  for (const char c : {'[', '{', '"'}) {
    MustReject(std::string(1 << 16, c), std::string(1, c) + " x 64 KiB");
  }
  MustReject(std::string(1 << 16, '\n'), "64 KiB of newlines");
  MustReject(std::string("{\"espresso_strategy_ir\": \0 1}", 29), "embedded NUL");

  const std::string& document = SeedDocument();
  for (const char* value : {"1e999", "-1", "18446744073709551616", "0"}) {
    MustReject(Replaced(document, "\"fan_in\": 1,", std::string("\"fan_in\": ") + value + ","),
               std::string("fan_in ") + value);
    MustReject(Replaced(document, "\"domain\": 1,", std::string("\"domain\": ") + value + ","),
               std::string("domain ") + value);
  }

  // 2000 ops in one tensor: past the per-tensor cap.
  const size_t ops = document.find("\"ops\": [\n");
  ASSERT_NE(ops, std::string::npos);
  const size_t op_begin = ops + 9;
  const size_t op_end = document.find('\n', op_begin);
  std::string op_line = document.substr(op_begin, op_end - op_begin);
  if (op_line.back() != ',') op_line += ',';
  std::string many_ops = document;
  std::string block;
  for (int i = 0; i < 2000; ++i) {
    block += op_line + "\n";
  }
  many_ops.insert(op_begin, block);
  MustReject(many_ops, "2000 ops in one tensor");
}

}  // namespace
}  // namespace espresso
