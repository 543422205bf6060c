#include "src/util/checked_math.h"

#include <gtest/gtest.h>

namespace espresso {
namespace {

TEST(CheckedMath, SaturatingAdd) {
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
  EXPECT_EQ(SaturatingAdd(kSaturated, 0), kSaturated);
  EXPECT_EQ(SaturatingAdd(kSaturated, 1), kSaturated);
  EXPECT_EQ(SaturatingAdd(kSaturated - 1, 1), kSaturated);
  EXPECT_EQ(SaturatingAdd(kSaturated / 2 + 1, kSaturated / 2 + 1), kSaturated);
}

TEST(CheckedMath, SaturatingPow2) {
  EXPECT_EQ(SaturatingPow2(0), 1u);
  EXPECT_EQ(SaturatingPow2(10), 1024u);
  EXPECT_EQ(SaturatingPow2(63), size_t{1} << 63);
  // At and beyond the word size the shift is undefined behavior; saturate instead.
  EXPECT_EQ(SaturatingPow2(64), kSaturated);
  EXPECT_EQ(SaturatingPow2(1000), kSaturated);
}

}  // namespace
}  // namespace espresso
