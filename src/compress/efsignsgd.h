// EF-SignSGD 1-bit quantization (Karimireddy et al. [29]).
//
// Encodes each gradient as its sign (1 bit, packed 8 per byte) plus one shared scale
// ||g||_1 / n, so decompress(g) = scale * sign(g). The error-feedback memory that makes
// this convergent lives in ErrorFeedback (src/compress/error_feedback.h), matching the
// paper's setup ("Error-feedback is applied on both GPU and CPU compression").
#ifndef SRC_COMPRESS_EFSIGNSGD_H_
#define SRC_COMPRESS_EFSIGNSGD_H_

#include "src/compress/compressor.h"

namespace espresso {

class EfSignSgdCompressor final : public Compressor {
 public:
  std::string_view name() const override { return "efsignsgd"; }
  size_t CompressedBytes(size_t elements) const override;
  void Compress(std::span<const float> input, uint64_t seed,
                CompressedTensor* out) const override;
  void DecompressAdd(const CompressedTensor& in, std::span<float> out) const override;
};

}  // namespace espresso

#endif  // SRC_COMPRESS_EFSIGNSGD_H_
