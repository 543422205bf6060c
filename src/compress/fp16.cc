#include "src/compress/fp16.h"

#include <cstring>

#include "src/compress/kernels/kernels.h"
#include "src/compress/kernels/scalar_ref.h"
#include "src/util/logging.h"

namespace espresso {

// The conversion algorithms live in the kernel layer's scalar reference
// (src/compress/kernels/scalar_ref.h), validated exhaustively against hardware F16C
// over all 2^32 encodes and 2^16 decodes, so the vectorized vcvtps2ph/vcvtph2ps path
// is bit-identical by construction. These wrappers keep the public test surface.
uint16_t FloatToHalf(float value) { return kernels::RefFloatToHalf(value); }
float HalfToFloat(uint16_t half) { return kernels::RefHalfToFloat(half); }

void Fp16Compressor::Compress(std::span<const float> input, uint64_t /*seed*/,
                              CompressedTensor* out) const {
  ESP_CHECK(out != nullptr);
  out->Clear();
  out->kind = PayloadKind::kRaw;
  out->original_elements = input.size();
  out->bytes.resize(input.size() * 2);
  kernels::Active().fp16_encode(input.data(), input.size(),
                                reinterpret_cast<uint16_t*>(out->bytes.data()));
}

void Fp16Compressor::DecompressAdd(const CompressedTensor& in, std::span<float> out) const {
  ESP_CHECK_EQ(in.original_elements, out.size());
  kernels::Active().fp16_decode_add(reinterpret_cast<const uint16_t*>(in.bytes.data()),
                                    out.size(), out.data());
}

}  // namespace espresso
