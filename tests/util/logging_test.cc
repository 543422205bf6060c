#include "src/util/logging.h"

#include <gtest/gtest.h>

namespace espresso {
namespace {

TEST(CheckMacros, PassingChecksAreSilent) {
  ESP_CHECK(true);
  ESP_CHECK_EQ(1, 1);
  ESP_CHECK_NE(1, 2);
  ESP_CHECK_LT(1, 2);
  ESP_CHECK_LE(2, 2);
  ESP_CHECK_GT(3, 2);
  ESP_CHECK_GE(3, 3);
}

TEST(CheckMacrosDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(ESP_CHECK(false) << "boom", "Check failed");
  EXPECT_DEATH(ESP_CHECK_EQ(1, 2), "1 vs 2");
}

}  // namespace
}  // namespace espresso
