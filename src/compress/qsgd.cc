#include "src/compress/qsgd.h"

#include <cmath>

#include "src/compress/kernels/kernels.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace espresso {

namespace {

// The counter RNG replaces the old stateful per-element draws: the i-th element's
// rounding uniform is a pure function of (seed, n, i), so lanes can be evaluated in any
// order — and in SIMD batches — without changing a single payload byte. Key derivation
// keeps going through DeriveSeed(seed, n), preserving the shared-seed cross-rank
// property the schemes rely on.
void SplitSeed(uint64_t seed, size_t n, uint32_t* k0, uint32_t* k1) {
  const uint64_t derived = DeriveSeed(seed, n);
  *k0 = static_cast<uint32_t>(derived);
  *k1 = static_cast<uint32_t>(derived >> 32);
}

}  // namespace

QsgdCompressor::QsgdCompressor(int bits) : bits_(bits), levels_((1 << bits) - 1) {
  ESP_CHECK_GE(bits, 1);
  ESP_CHECK_LE(bits, 7);  // sign + level fit one byte
}

size_t QsgdCompressor::CompressedBytes(size_t elements) const {
  return elements + sizeof(float);  // one code byte per element + the norm
}

void QsgdCompressor::Compress(std::span<const float> input, uint64_t seed,
                              CompressedTensor* out) const {
  ESP_CHECK(out != nullptr);
  out->Clear();
  out->kind = PayloadKind::kPackedBits;
  out->original_elements = input.size();
  const kernels::KernelOps& ops = kernels::Active();
  const float norm = static_cast<float>(std::sqrt(ops.sum_squares(input.data(), input.size())));
  out->scales.push_back(norm);
  out->bytes.resize(input.size());
  if (norm == 0.0f) {
    return;
  }
  uint32_t k0 = 0;
  uint32_t k1 = 0;
  SplitSeed(seed, input.size(), &k0, &k1);
  ops.qsgd_quantize(input.data(), input.size(), norm, levels_, k0, k1, out->bytes.data());
}

void QsgdCompressor::DecompressAdd(const CompressedTensor& in, std::span<float> out) const {
  ESP_CHECK_EQ(in.original_elements, out.size());
  ESP_CHECK_EQ(in.scales.size(), 1u);
  const float norm = in.scales[0];
  const float unit = norm / static_cast<float>(levels_);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint8_t code = in.bytes[i];
    const float value = static_cast<float>(code & 0x7F) * unit;
    out[i] += (code & 0x80) ? -value : value;
  }
}

}  // namespace espresso
