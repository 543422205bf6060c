// FP16 truncation: each float32 is converted to IEEE 754 binary16 (round-to-nearest-even)
// giving a fixed 2x traffic reduction. Included as the simplest quantizer and as the
// baseline "cheap" compressor in ablation benches.
#ifndef SRC_COMPRESS_FP16_H_
#define SRC_COMPRESS_FP16_H_

#include <cstdint>

#include "src/compress/compressor.h"

namespace espresso {

// Scalar conversions, exposed for tests.
uint16_t FloatToHalf(float value);
float HalfToFloat(uint16_t half);

class Fp16Compressor final : public Compressor {
 public:
  std::string_view name() const override { return "fp16"; }
  size_t CompressedBytes(size_t elements) const override { return elements * 2; }
  void Compress(std::span<const float> input, uint64_t seed,
                CompressedTensor* out) const override;
  void DecompressAdd(const CompressedTensor& in, std::span<float> out) const override;
};

}  // namespace espresso

#endif  // SRC_COMPRESS_FP16_H_
