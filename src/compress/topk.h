// Top-k sparsification — the communication pattern of Deep Gradient Compression
// (Lin et al. [36], "DGC" in the paper's evaluation; 1% compression rate).
//
// Keeps the k elements of largest magnitude. Unlike Random-k, different ranks select
// different coordinates, so compressed-domain aggregation is impossible: divisible
// schemes must decompress-aggregate-recompress at the middle stage.
#ifndef SRC_COMPRESS_TOPK_H_
#define SRC_COMPRESS_TOPK_H_

#include "src/compress/compressor.h"

namespace espresso {

class TopKCompressor final : public Compressor {
 public:
  explicit TopKCompressor(double ratio);

  std::string_view name() const override { return "dgc"; }
  size_t CompressedBytes(size_t elements) const override;
  void Compress(std::span<const float> input, uint64_t seed,
                CompressedTensor* out) const override;
  void DecompressAdd(const CompressedTensor& in, std::span<float> out) const override;

  size_t KeptElements(size_t elements) const;

 private:
  double ratio_;
};

}  // namespace espresso

#endif  // SRC_COMPRESS_TOPK_H_
