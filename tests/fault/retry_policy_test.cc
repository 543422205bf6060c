#include "src/fault/retry_policy.h"

#include <gtest/gtest.h>

namespace espresso {
namespace {

TEST(RetryPolicy, ShouldRetryGivesUpAtMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_TRUE(policy.ShouldRetry(1));
  EXPECT_TRUE(policy.ShouldRetry(2));
  EXPECT_FALSE(policy.ShouldRetry(3));
  EXPECT_FALSE(policy.ShouldRetry(4));
}

TEST(RetryPolicy, DelayDoublesThenCaps) {
  RetryPolicy policy;
  policy.base_delay_s = 1e-3;
  policy.max_delay_s = 4e-3;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.Delay(1, rng), 1e-3);
  EXPECT_DOUBLE_EQ(policy.Delay(2, rng), 2e-3);
  EXPECT_DOUBLE_EQ(policy.Delay(3, rng), 4e-3);
  EXPECT_DOUBLE_EQ(policy.Delay(4, rng), 4e-3);  // capped
  EXPECT_DOUBLE_EQ(policy.Delay(10, rng), 4e-3);
}

TEST(RetryPolicy, JitterStaysWithinFraction) {
  RetryPolicy policy;
  policy.base_delay_s = 1e-3;
  policy.max_delay_s = 1.0;
  policy.jitter = 0.25;
  Rng rng(7);
  for (uint32_t retry = 1; retry <= 6; ++retry) {
    const double nominal = std::min(policy.max_delay_s,
                                    policy.base_delay_s * (1u << (retry - 1)));
    for (int i = 0; i < 200; ++i) {
      const double d = policy.Delay(retry, rng);
      EXPECT_GE(d, nominal * 0.75 - 1e-15);
      EXPECT_LE(d, nominal * 1.25 + 1e-15);
    }
  }
}

// Regression: the jitter draw used to be applied AFTER the max_delay_s clamp, so a
// deep-retry delay could come out at max_delay_s * (1 + jitter). The cap is a hard
// ceiling; a positive jitter draw must never push a delay past it.
TEST(RetryPolicy, JitteredDelayNeverExceedsCap) {
  RetryPolicy policy;
  policy.base_delay_s = 1e-3;
  policy.max_delay_s = 8e-3;  // attempts >= 5 hit the cap before jitter
  policy.jitter = 0.5;
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const uint32_t retry = 1 + static_cast<uint32_t>(i % 12);
    const double d = policy.Delay(retry, rng);
    EXPECT_LE(d, policy.max_delay_s) << "retry " << retry << " draw " << i;
    EXPECT_GE(d, 0.0);
  }
}

TEST(RetryPolicy, JitterIsDeterministicGivenSeed) {
  RetryPolicy policy;
  Rng a(99), b(99);
  for (uint32_t retry = 1; retry <= 8; ++retry) {
    EXPECT_EQ(policy.Delay(retry, a), policy.Delay(retry, b));
  }
}

TEST(RetryPolicy, FromConfigFallsBackOnBadValues) {
  const ConfigFile config = ConfigFile::ParseString(
      "[retry]\n"
      "max_attempts = 6\n"
      "base_delay_s = not_a_number\n"
      "jitter = 0.5\n");
  ASSERT_TRUE(config.ok());
  const RetryPolicy policy = RetryPolicy::FromConfig(config);
  EXPECT_EQ(policy.max_attempts, 6u);
  EXPECT_DOUBLE_EQ(policy.base_delay_s, 1e-3);  // fallback
  EXPECT_DOUBLE_EQ(policy.jitter, 0.5);
  ASSERT_EQ(config.warnings().size(), 1u);
  EXPECT_NE(config.warnings()[0].find("base_delay_s"), std::string::npos);
}

}  // namespace
}  // namespace espresso
