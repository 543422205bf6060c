#include "src/compress/efsignsgd.h"

#include <bit>
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
  ESP_CHECK_GE(in.bytes.size(), (out.size() + 7) / 8);
  // Bit k of byte b is the sign of element 8b + k: set adds +scale, clear adds -scale.
  // Each byte drives 8 outputs. -scale is the scale with its sign bit flipped in the
  // integer domain, branch-free, so the loop vectorizes and the add stays an add: the
  // compiler may not rewrite it as `out - scale`, which would flip a NaN result's sign.
  constexpr uint32_t kSignBit = 0x80000000u;
  const uint32_t scale = std::bit_cast<uint32_t>(in.scales[0]);
  const auto signed_scale = [scale](unsigned byte, unsigned k) {
    return std::bit_cast<float>(scale ^ ((byte & (1u << k)) != 0 ? 0u : kSignBit));
  };
  const uint8_t* bits = in.bytes.data();
  float* dst = out.data();
  const size_t full = out.size() / 8;
  for (size_t b = 0; b < full; ++b) {
    const unsigned byte = bits[b];
    for (unsigned k = 0; k < 8; ++k) {
      dst[8 * b + k] += signed_scale(byte, k);
    }
  }
  for (size_t i = 8 * full; i < out.size(); ++i) {
    dst[i] += signed_scale(bits[full], static_cast<unsigned>(i % 8));
  }
}

}  // namespace espresso
