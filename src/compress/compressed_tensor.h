// Wire representation of a compressed gradient tensor.
//
// Every compression algorithm in the library lowers to one of three payload layouts:
//   * kSparse     — parallel (index, value) arrays (Random-k, Top-k / DGC, Threshold)
//   * kPackedBits — bit/byte-packed codes plus one or more float scales
//                   (EFSignSGD, TernGrad, QSGD)
//   * kRaw        — raw payload bytes (FP16; Threshold's dense fallback)
// ByteSize() is the exact number of bytes that would cross the network; the cost model
// uses the analytic Compressor::CompressedBytes, and tests assert the two agree.
#ifndef SRC_COMPRESS_COMPRESSED_TENSOR_H_
#define SRC_COMPRESS_COMPRESSED_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace espresso {

enum class PayloadKind {
  kSparse,
  kPackedBits,
  kRaw,
};

struct CompressedTensor {
  PayloadKind kind = PayloadKind::kSparse;
  uint64_t original_elements = 0;

  // kSparse: element indices and their float values (same length). The indices are
  // unique, and decompressing adds values[j] to element indices[j] and touches no
  // other element; ErrorFeedback relies on both.
  std::vector<uint32_t> indices;
  std::vector<float> values;

  // kPackedBits / kRaw: packed payload bytes.
  std::vector<uint8_t> bytes;
  // Scales accompanying packed payloads (e.g. the EFSignSGD magnitude, the QSGD norm).
  std::vector<float> scales;

  // Exact on-the-wire size in bytes (indices 4B, values 4B, scales 4B, bytes 1B).
  size_t ByteSize() const {
    return indices.size() * sizeof(uint32_t) + values.size() * sizeof(float) +
           scales.size() * sizeof(float) + bytes.size();
  }

  void Clear() {
    original_elements = 0;
    indices.clear();
    values.clear();
    bytes.clear();
    scales.clear();
  }
};

}  // namespace espresso

#endif  // SRC_COMPRESS_COMPRESSED_TENSOR_H_
