// QSGD stochastic quantization (Alistarh et al. [6]).
//
// Quantizes v_i to level round_stochastic(|v_i| / ||v||_2 * s) out of s = 2^bits - 1
// levels, storing sign+level in one byte per element (bits <= 7) plus the l2 norm.
// Stochastic rounding is driven by the compression seed, so it is reproducible and, with
// a shared seed, identical across ranks.
#ifndef SRC_COMPRESS_QSGD_H_
#define SRC_COMPRESS_QSGD_H_

#include "src/compress/compressor.h"

namespace espresso {

class QsgdCompressor final : public Compressor {
 public:
  explicit QsgdCompressor(int bits);

  std::string_view name() const override { return "qsgd"; }
  size_t CompressedBytes(size_t elements) const override;
  void Compress(std::span<const float> input, uint64_t seed,
                CompressedTensor* out) const override;
  void DecompressAdd(const CompressedTensor& in, std::span<float> out) const override;

  int bits() const { return bits_; }

 private:
  int bits_;
  int levels_;
};

}  // namespace espresso

#endif  // SRC_COMPRESS_QSGD_H_
