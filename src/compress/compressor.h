// Abstract gradient-compression algorithm (§2.3 of the paper).
//
// Implementations are pure functions of (input, seed): no hidden state, so the same call
// on two data-parallel ranks with the same seed produces structurally identical output.
// That property is what makes shared-seed Random-k aggregatable in the compressed domain
// (the divisible-scheme shortcut of §4.2.2).
#ifndef SRC_COMPRESS_COMPRESSOR_H_
#define SRC_COMPRESS_COMPRESSOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/compress/compressed_tensor.h"

namespace espresso {

// One tensor of a CompressBatch call. `data` must stay valid for the duration of the
// call.
struct BatchCompressItem {
  const float* data = nullptr;
  size_t elements = 0;
  uint64_t seed = 0;
  CompressedTensor* out = nullptr;
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual std::string_view name() const = 0;

  // Analytic wire size for a tensor of `elements` float32 values. Used by the cost
  // model; tests assert it matches CompressedTensor::ByteSize() of an actual Compress
  // call.
  virtual size_t CompressedBytes(size_t elements) const = 0;

  // Compresses `input`. `seed` drives any randomness (index sampling, stochastic
  // rounding); deterministic algorithms ignore it.
  virtual void Compress(std::span<const float> input, uint64_t seed,
                        CompressedTensor* out) const = 0;

  // Compresses each item in order, exactly as Compress(item.data[0..elements],
  // item.seed, item.out) would. Nothing in src/ calls it (every compression goes
  // through Compress); it stays because perfbench's forwarding TimedCompressor
  // overrides it.
  virtual void CompressBatch(std::span<const BatchCompressItem> items) const;

  // Accumulates the decompressed tensor INTO `out` (out += decompress(in)).
  // Aggregation of compressed shards from many ranks is a sequence of DecompressAdd
  // calls into a zeroed buffer, which is exactly what the divisible scheme's middle
  // stage does (Figure 4(b)).
  virtual void DecompressAdd(const CompressedTensor& in, std::span<float> out) const = 0;

  // Overwrite-decompress: zero-fills `out` then DecompressAdd.
  void Decompress(const CompressedTensor& in, std::span<float> out) const;

  // Whether CompressedBytes is exact for every input of the given size. §4.3 requires
  // "deterministic compression time ... and deterministic compression ratio" for the
  // strategy selector; content-dependent algorithms (hard thresholding) return false
  // and are accepted only on the training/execution path.
  virtual bool HasDeterministicSize() const { return true; }

  // True if payloads produced with the same seed can be aggregated without
  // decompression (same index structure). Enables skipping the
  // decompress-aggregate-recompress stage in divisible schemes (§4.2.2 footnote).
  virtual bool SupportsCompressedAggregation() const { return false; }

  // Aggregates `in` into `accum` in the compressed domain. Only valid when
  // SupportsCompressedAggregation() is true and both payloads share a seed.
  virtual void AggregateCompressed(const CompressedTensor& in, CompressedTensor* accum) const;
};

// Factory. Supported names (case-sensitive):
//   "randomk"   — Random-k sparsification [62]; `ratio` = fraction of elements kept.
//   "topk"/"dgc"— Top-k / Deep Gradient Compression [36]; `ratio` as above.
//   "efsignsgd" — 1-bit sign quantization with scale [29]; `ratio` ignored.
//   "qsgd"      — stochastic quantization [6]; `bits` in [1, 8].
//   "terngrad"  — ternary quantization [71].
//   "fp16"      — half-precision truncation.
//   "threshold" — hard-threshold sparsification [5]; `threshold` = magnitude cutoff.
//                 Content-dependent size: usable for training, rejected by the selector.
struct CompressorConfig {
  std::string algorithm = "randomk";
  double ratio = 0.01;     // sparsification compression rate (1% in the paper's evaluation)
  int bits = 8;            // quantization width for qsgd
  double threshold = 0.01; // magnitude cutoff for "threshold"
};

// True for exactly the algorithm names above, the ones CreateCompressor accepts.
bool IsCompressionAlgorithm(std::string_view algorithm);

// Aborts on an algorithm name IsCompressionAlgorithm rejects.
std::unique_ptr<Compressor> CreateCompressor(const CompressorConfig& config);

}  // namespace espresso

#endif  // SRC_COMPRESS_COMPRESSOR_H_
