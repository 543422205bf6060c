// Adversarial inputs for Top-k magnitude selection, shared by the kernel and the
// compressor tests. Each family stresses one way an exact select can go wrong: ties
// (all equal, all ±0, a tie block in the middle, few distinct magnitudes), the ends
// of the magnitude order (denormals only, a lone ±inf among zeros, NaNs with
// different payloads and sign bits), and every element in one level-1 histogram bin
// or one 21-bit prefix, so the histogram levels cannot split the input.
#ifndef TESTS_COMPRESS_MAGNITUDE_INPUTS_H_
#define TESTS_COMPRESS_MAGNITUDE_INPUTS_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/rng.h"

namespace espresso::test_inputs {

struct MagnitudeInput {
  const char* family;
  std::vector<float> values;
};

// Sizes around the direct-select cut (64) plus a large shard of exec-dgc-nvlink.
inline constexpr size_t kSelectLengths[] = {1, 63, 64, 65, 4097, 37689};

// k in {1, 2, n/100, n/2, n-1, n} (n/100 is DGC's 1% rate), kept within [1, n] and
// without repeats.
inline std::vector<size_t> SelectRanks(size_t n) {
  std::vector<size_t> ks;
  for (size_t k : {size_t{1}, size_t{2}, n / 100, n / 2, n - 1, n}) {
    if (k >= 1 && k <= n && (ks.empty() || ks.back() < k)) {
      ks.push_back(k);
    }
  }
  return ks;
}

inline std::vector<MagnitudeInput> AdversarialMagnitudeInputs(size_t n, uint64_t seed) {
  Rng rng(DeriveSeed(seed, n));
  auto draw = [&rng] { return static_cast<uint32_t>(rng.engine()()); };
  auto with_sign = [](uint32_t magnitude, uint32_t r) {
    return std::bit_cast<float>(magnitude | (r & 0x80000000u));
  };
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<MagnitudeInput> inputs;

  std::vector<float> normal(n);
  rng.FillNormal(normal, 0.0, 1.0);
  for (size_t i = 0; i + 4 < n; i += 11) {
    normal[i + 4] = normal[i];  // exact duplicate magnitudes
  }
  if (n > 5) {
    normal[2] = 0.0f;
    normal[5] = -0.0f;
    normal[3] = 1e-42f;  // denormal
  }
  inputs.push_back({"normal-with-duplicates", normal});

  inputs.push_back({"all-equal", std::vector<float>(n, 0.75f)});

  std::vector<float> zeros(n);
  for (size_t i = 0; i < n; ++i) {
    zeros[i] = draw() & 1u ? -0.0f : 0.0f;
  }
  inputs.push_back({"all-signed-zero", zeros});

  // A tie block over the middle half, so k = n/2 falls inside it.
  std::vector<float> tie_block = normal;
  for (size_t i = n / 4; i < n - n / 4; ++i) {
    tie_block[i] = draw() & 1u ? -0.5f : 0.5f;
  }
  inputs.push_back({"tie-block-in-middle", tie_block});

  std::vector<float> few(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = draw();
    few[i] = with_sign(std::bit_cast<uint32_t>(1.0f + static_cast<float>(r % 3)), r);
  }
  inputs.push_back({"three-magnitudes", few});

  std::vector<float> denormals(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = draw();
    denormals[i] = with_sign(1u + r % 0x7fffffu, r);
  }
  inputs.push_back({"denormals-only", denormals});

  std::vector<float> lone_inf = zeros;
  lone_inf[n / 3] = draw() & 1u ? -inf : inf;
  inputs.push_back({"lone-inf-among-zeros", lone_inf});

  // NaNs (quiet and signalling payloads, either sign) mixed with normals and ±inf.
  std::vector<float> nans = normal;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = draw();
    if (r % 3 == 0) {
      nans[i] = with_sign(0x7f800000u | (1u + (r >> 8) % 0x7fffffu), r);
    } else if (r % 17 == 1) {
      nans[i] = r & 0x80000000u ? -inf : inf;
    }
  }
  inputs.push_back({"nan-payloads", nans});

  // Every magnitude in [1, 1.125): bits >> 20 == 0x3f8 for all, one level-1 bin.
  std::vector<float> one_bin(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = draw();
    one_bin[i] = with_sign(0x3f800000u | (r & 0xfffffu), r);
  }
  inputs.push_back({"one-level1-bin", one_bin});

  // Every magnitude shares its top 21 bits: only bits 0..9 differ.
  std::vector<float> one_prefix(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = draw();
    one_prefix[i] = with_sign(0x3f800000u | (r & 0x3ffu), r);
  }
  inputs.push_back({"one-21-bit-prefix", one_prefix});

  return inputs;
}

}  // namespace espresso::test_inputs

#endif  // TESTS_COMPRESS_MAGNITUDE_INPUTS_H_
