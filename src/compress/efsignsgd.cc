#include "src/compress/efsignsgd.h"

#include <cmath>

#include "src/compress/kernels/kernels.h"
#include "src/util/logging.h"

namespace espresso {

size_t EfSignSgdCompressor::CompressedBytes(size_t elements) const {
  return (elements + 7) / 8 + sizeof(float);
}

void EfSignSgdCompressor::Compress(std::span<const float> input, uint64_t /*seed*/,
                                   CompressedTensor* out) const {
  ESP_CHECK(out != nullptr);
  out->Clear();
  out->kind = PayloadKind::kPackedBits;
  out->original_elements = input.size();
  out->bytes.assign((input.size() + 7) / 8, 0);
  const kernels::KernelOps& ops = kernels::Active();
  const double l1 = ops.sum_abs(input.data(), input.size());
  ops.sign_pack(input.data(), input.size(), out->bytes.data());
  const float scale =
      input.empty() ? 0.0f : static_cast<float>(l1 / static_cast<double>(input.size()));
  out->scales.push_back(scale);
}

void EfSignSgdCompressor::DecompressAdd(const CompressedTensor& in, std::span<float> out) const {
  ESP_CHECK_EQ(in.original_elements, out.size());
  ESP_CHECK_EQ(in.scales.size(), 1u);
  const float scale = in.scales[0];
  for (size_t i = 0; i < out.size(); ++i) {
    const bool positive = (in.bytes[i / 8] >> (i % 8)) & 1u;
    out[i] += positive ? scale : -scale;
  }
}

}  // namespace espresso
