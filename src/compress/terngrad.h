// TernGrad ternary quantization (Wen et al. [71]).
//
// Maps each gradient to {-1, 0, +1} * max|v| with stochastic rounding, packing four
// 2-bit codes per byte plus the scale.
#ifndef SRC_COMPRESS_TERNGRAD_H_
#define SRC_COMPRESS_TERNGRAD_H_

#include "src/compress/compressor.h"

namespace espresso {

class TernGradCompressor final : public Compressor {
 public:
  std::string_view name() const override { return "terngrad"; }
  size_t CompressedBytes(size_t elements) const override;
  void Compress(std::span<const float> input, uint64_t seed,
                CompressedTensor* out) const override;
  void DecompressAdd(const CompressedTensor& in, std::span<float> out) const override;
};

}  // namespace espresso

#endif  // SRC_COMPRESS_TERNGRAD_H_
