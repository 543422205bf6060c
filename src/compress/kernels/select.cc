// Exact k-th-largest magnitude selection in the integer magnitude domain.
//
// A two-level radix histogram over the 31 magnitude bits. One vectorized abs_bits
// pass writes bits(|x|) to the first half of the scratch. Level 1 counts bits >> 20
// into 2048 bins and walks down from the top bin to the one holding the k-th
// largest; that bin's elements are compacted into the second half. Level 2 counts
// their bits 10..19 into 1024 bins, walks again and compacts the matching 21-bit
// prefix in place. std::nth_element finishes on the few candidates left. The cost is
// one abs_bits, one histogram and one compaction pass over n whatever the data, then
// passes over the candidates only. Sets of at most kDirect candidates skip the
// histograms (whose 12 KB of bins would outweigh them) and go to nth_element.
//
// The walks count the elements above the answer's bin, and the last step counts the
// candidates above it, so the caller gets #{bits > t} without another pass. Integer
// order gives NaN a defined place above +inf, where float comparisons would not.
#include <algorithm>
#include <functional>

#include "src/compress/kernels/kernels.h"
#include "src/util/logging.h"

namespace espresso::kernels {

namespace {

constexpr size_t kDirect = 64;
constexpr int kShift1 = 20;  // level 1 keys: bits 20..30
constexpr size_t kBins1 = size_t{1} << 11;
constexpr int kShift2 = 10;  // level 2 keys: bits 10..19
constexpr size_t kBins2 = size_t{1} << 10;

// Walks down from the top bin to the one holding the kk-th largest key. The bins
// above it are subtracted from *kk and added to *above.
uint32_t WalkDown(const uint32_t* hist, size_t bins, size_t* kk, size_t* above) {
  size_t b = bins - 1;
  while (hist[b] < *kk) {
    *kk -= hist[b];
    *above += hist[b];
    --b;
  }
  return static_cast<uint32_t>(b);
}

// Branch-free compaction of every src value whose bits above `shift` equal `key`
// into dst (dst == src is allowed: the write index never passes the read index).
size_t Compact(const uint32_t* src, size_t m, int shift, uint32_t key, uint32_t* dst) {
  size_t w = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t v = src[i];
    dst[w] = v;
    w += (v >> shift) == key ? 1u : 0u;
  }
  return w;
}

}  // namespace

KthMagnitude SelectKthMagnitude(const KernelOps& ops, const float* x, size_t n, size_t k,
                                std::vector<uint32_t>* scratch) {
  ESP_CHECK(scratch != nullptr);
  ESP_CHECK_GE(k, 1u);
  ESP_CHECK_LE(k, n);
  if (scratch->size() < 2 * n) {
    scratch->resize(2 * n);
  }
  uint32_t* bits = scratch->data();  // preserved: abs bits of the whole input
  uint32_t* c = scratch->data() + n;  // candidates
  ops.abs_bits(x, n, bits);

  size_t kk = k;      // rank of the answer among the candidates
  size_t above = 0;   // elements ruled out because they are above the answer
  size_t m = n;
  if (n <= kDirect) {
    std::copy(bits, bits + n, c);
  } else {
    uint32_t hist1[kBins1] = {};
    for (size_t i = 0; i < n; ++i) {
      ++hist1[bits[i] >> kShift1];
    }
    const uint32_t b1 = WalkDown(hist1, kBins1, &kk, &above);
    m = Compact(bits, n, kShift1, b1, c);
    if (m > kDirect) {
      uint32_t hist2[kBins2] = {};
      for (size_t i = 0; i < m; ++i) {
        ++hist2[(c[i] >> kShift2) & (kBins2 - 1)];
      }
      const uint32_t b2 = WalkDown(hist2, kBins2, &kk, &above);
      m = Compact(c, m, kShift2, (b1 << (kShift1 - kShift2)) | b2, c);
    }
  }
  std::nth_element(c, c + (kk - 1), c + m, std::greater<uint32_t>());
  const uint32_t t = c[kk - 1];
  for (size_t i = 0; i < m; ++i) {
    above += c[i] > t ? 1u : 0u;
  }
  return {t, above};
}

std::vector<uint32_t>& ThreadScratchU32() {
  thread_local std::vector<uint32_t> scratch;
  return scratch;
}

}  // namespace espresso::kernels
