#include "src/compress/topk.h"

#include <algorithm>
#include <cmath>

#include "src/compress/kernels/kernels.h"
#include "src/util/logging.h"

namespace espresso {

TopKCompressor::TopKCompressor(double ratio) : ratio_(ratio) {
  ESP_CHECK_GT(ratio, 0.0);
  ESP_CHECK_LE(ratio, 1.0);
}

size_t TopKCompressor::KeptElements(size_t elements) const {
  if (elements == 0) {
    return 0;
  }
  const auto k = static_cast<size_t>(std::llround(ratio_ * static_cast<double>(elements)));
  return std::clamp<size_t>(k, 1, elements);
}

size_t TopKCompressor::CompressedBytes(size_t elements) const {
  return KeptElements(elements) * (sizeof(uint32_t) + sizeof(float));
}

// Selection runs in the integer magnitude domain (kernels.h): a radix-histogram
// select over abs bits finds the k-th threshold t and the count above it without
// materializing an index permutation, then one ascending scan emits exactly the
// elements the old nth_element(magnitude desc, index asc) + sort pipeline kept —
// strictly-above-threshold elements plus the lowest-index ties — already in index
// order, so the final sort is gone structurally, not skipped.
void TopKCompressor::Compress(std::span<const float> input, uint64_t /*seed*/,
                              CompressedTensor* out) const {
  ESP_CHECK(out != nullptr);
  out->Clear();
  out->kind = PayloadKind::kSparse;
  out->original_elements = input.size();
  const size_t k = KeptElements(input.size());
  if (k == 0) {
    return;
  }
  const kernels::KernelOps& ops = kernels::Active();
  const kernels::KthMagnitude kth = kernels::SelectKthMagnitude(
      ops, input.data(), input.size(), k, &kernels::ThreadScratchU32());
  ESP_CHECK_LT(kth.n_gt, k);
  const size_t n_fill = k - kth.n_gt;
  out->indices.resize(k);
  out->values.resize(k);
  const size_t emitted =
      ops.select_topk(input.data(), input.size(), kth.t, n_fill, out->indices.data(),
                      out->values.data());
  ESP_CHECK_EQ(emitted, k);
}

void TopKCompressor::DecompressAdd(const CompressedTensor& in, std::span<float> out) const {
  ESP_CHECK_EQ(in.original_elements, out.size());
  ESP_CHECK_EQ(in.indices.size(), in.values.size());
  for (size_t i = 0; i < in.indices.size(); ++i) {
    out[in.indices[i]] += in.values[i];
  }
}

}  // namespace espresso
