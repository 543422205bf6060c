#include "src/collectives/primitives.h"

#include <gtest/gtest.h>

namespace espresso {
namespace {

TEST(Partition, CoversRangeExactly) {
  for (size_t n : {0u, 1u, 7u, 64u, 65u}) {
    for (size_t p : {1u, 2u, 3u, 8u}) {
      Partition part(n, p);
      size_t total = 0;
      size_t expected_offset = 0;
      for (size_t i = 0; i < p; ++i) {
        EXPECT_EQ(part.Offset(i), expected_offset);
        total += part.Length(i);
        expected_offset += part.Length(i);
      }
      EXPECT_EQ(total, n);
    }
  }
}

TEST(Partition, NearEqualLengths) {
  Partition part(10, 3);
  EXPECT_EQ(part.Length(0), 4u);
  EXPECT_EQ(part.Length(1), 3u);
  EXPECT_EQ(part.Length(2), 3u);
}

TEST(CheckUniformSizeDeathTest, MismatchedSizesDie) {
  RankBuffers buffers = {{1.0f, 2.0f}, {3.0f}};
  EXPECT_DEATH(CheckUniformSize(buffers), "");
}

}  // namespace
}  // namespace espresso
