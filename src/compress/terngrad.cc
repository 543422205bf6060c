#include "src/compress/terngrad.h"

#include <cmath>

#include "src/compress/kernels/kernels.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace espresso {

namespace {
// 2-bit codes: 0 -> zero, 1 -> +scale, 2 -> -scale (the kernel layer hard-codes the
// same mapping). Keep probability for element i is |v_i| / max|v| with a counter-RNG
// uniform, so draws are order-independent and SIMD-batchable.
constexpr uint8_t kPlus = 1;
constexpr uint8_t kMinus = 2;

void SplitSeed(uint64_t seed, size_t n, uint32_t* k0, uint32_t* k1) {
  const uint64_t derived = DeriveSeed(seed, n);
  *k0 = static_cast<uint32_t>(derived);
  *k1 = static_cast<uint32_t>(derived >> 32);
}
}  // namespace

size_t TernGradCompressor::CompressedBytes(size_t elements) const {
  return (elements + 3) / 4 + sizeof(float);
}

void TernGradCompressor::Compress(std::span<const float> input, uint64_t seed,
                                  CompressedTensor* out) const {
  ESP_CHECK(out != nullptr);
  out->Clear();
  out->kind = PayloadKind::kPackedBits;
  out->original_elements = input.size();
  const kernels::KernelOps& ops = kernels::Active();
  const float max_abs = ops.max_abs(input.data(), input.size());
  out->scales.push_back(max_abs);
  out->bytes.assign((input.size() + 3) / 4, 0);
  if (max_abs == 0.0f) {
    return;
  }
  uint32_t k0 = 0;
  uint32_t k1 = 0;
  SplitSeed(seed, input.size(), &k0, &k1);
  ops.terngrad_quantize(input.data(), input.size(), max_abs, k0, k1, out->bytes.data());
}

void TernGradCompressor::DecompressAdd(const CompressedTensor& in, std::span<float> out) const {
  ESP_CHECK_EQ(in.original_elements, out.size());
  ESP_CHECK_EQ(in.scales.size(), 1u);
  const float scale = in.scales[0];
  for (size_t i = 0; i < out.size(); ++i) {
    const uint8_t code = (in.bytes[i / 4] >> (2 * (i % 4))) & 0x3;
    if (code == kPlus) {
      out[i] += scale;
    } else if (code == kMinus) {
      out[i] -= scale;
    }
  }
}

}  // namespace espresso
