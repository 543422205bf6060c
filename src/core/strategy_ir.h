// Versioned, digest-stamped strategy IR — the governed hand-off between offline
// selection and the training runtime (Figure 6), and the unit of deployment for
// online re-selection (DriftMonitor -> publish IR -> executors swap atomically).
//
// It is the only strategy format: a self-contained JSON document that carries the
// per-tensor options together with *what may run them*:
//   * `espresso_strategy_ir` — schema version; unknown versions are refused.
//   * `digests` — splitmix64 content digests of the model profile, cluster spec, and
//     compression configuration the strategy was selected for. A loader recomputes
//     them from its own job configuration and refuses a mismatch (fail-closed): a
//     strategy selected for 8x8 NVLink must not silently run on 4x4 PCIe.
//   * `payload_digest` — self-digest over every semantic field of the document, so
//     any tampering or torn write is detected at parse time.
//   * `provenance` — who selected it (origin, selector), at which training iteration,
//     under how much drift, and the selector's F(S) score.
//   * `tensors` — per-tensor option records (the ops, fully spelled out).
//
// The writer is canonical and byte-stable: the same StrategyIR always serializes to
// the same bytes (fixed key order, shortest round-trip doubles), so digests, diffs,
// and golden files are meaningful. Publication is atomic (temp file + rename).
#ifndef SRC_CORE_STRATEGY_IR_H_
#define SRC_CORE_STRATEGY_IR_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "src/compress/compressor.h"
#include "src/costmodel/calibration.h"
#include "src/core/strategy.h"
#include "src/models/model_profile.h"

namespace espresso {

inline constexpr int64_t kStrategyIrSchemaVersion = 1;

// Fixed-width lowercase hex rendering of a digest — the form digests take inside IR
// documents, diagnostics, and audit records (JSON numbers cannot carry every uint64).
std::string DigestHex(uint64_t digest);

// Config digests: 64-bit splitmix64 content hashes over every field that changes what
// a strategy means or whether it is legal. Stable across processes and builds.
uint64_t ModelDigest(const ModelProfile& model);
uint64_t ClusterDigest(const ClusterSpec& cluster);
uint64_t CompressionDigest(const CompressorConfig& config);

struct StrategyProvenance {
  std::string origin;    // publishing component, e.g. "espresso_cli", "online-reselector"
  std::string selector;  // producing algorithm, e.g. "espresso", "manual"
  uint64_t iteration = 0;  // training iteration of publication (0 for offline selection)
  double drift = 0.0;      // observed drift at publication (0 for offline selection)

  bool operator==(const StrategyProvenance&) const = default;
};

struct StrategyIR {
  int64_t schema_version = kStrategyIrSchemaVersion;
  uint64_t model_digest = 0;
  uint64_t cluster_digest = 0;
  uint64_t compression_digest = 0;
  double fs_score = 0.0;  // selector's F(S) for this strategy (simulator seconds)
  StrategyProvenance provenance;
  Strategy strategy;

  // Digest over every semantic field above (including option labels, which the
  // fingerprint deliberately ignores). This is what `payload_digest` stamps.
  uint64_t ContentDigest() const;
};

// Builds an IR for `strategy` as selected against the given job configuration.
StrategyIR CompileStrategyIR(const Strategy& strategy, double fs_score,
                             const ModelProfile& model, const ClusterSpec& cluster,
                             const CompressorConfig& compressor,
                             StrategyProvenance provenance);

// Canonical, byte-stable serialization (always ends with a newline).
void WriteStrategyIR(std::ostream& os, const StrategyIR& ir);
std::string StrategyIRToString(const StrategyIR& ir);

struct StrategyIRParseResult {
  bool ok = false;
  std::string error;  // "line N: ..." diagnostics on failure
  StrategyIR ir;
};

struct StrategyIRParseOptions {
  // When false, a payload_digest mismatch is tolerated (the caller downgraded it to a
  // warning via --force-digest); structural strictness is never relaxed.
  bool verify_payload_digest = true;
};

// Strict parse: unknown schema versions, missing fields, unknown keys, wrong types,
// out-of-range values, and (unless disabled) payload-digest mismatches are all
// refused with line-level diagnostics. Never throws, never aborts.
StrategyIRParseResult ParseStrategyIR(std::string_view text,
                                      const StrategyIRParseOptions& options = {});

// File helpers. Writing is atomic: temp file + rename, so a crashed writer can never
// leave a torn IR on disk. The parse result's `error` names the path on failure.
bool WriteStrategyIRFile(const std::string& path, const StrategyIR& ir,
                         std::string* error = nullptr);
StrategyIRParseResult ReadStrategyIRFile(const std::string& path,
                                         const StrategyIRParseOptions& options = {});

}  // namespace espresso

#endif  // SRC_CORE_STRATEGY_IR_H_
