#include "src/collectives/primitives.h"

namespace espresso {

std::vector<float> NaiveSum(const RankBuffers& buffers) {
  const size_t n = CheckUniformSize(buffers);
  std::vector<float> sum(n, 0.0f);
  for (const auto& b : buffers) {
    for (size_t i = 0; i < n; ++i) {
      sum[i] += b[i];
    }
  }
  return sum;
}

}  // namespace espresso
