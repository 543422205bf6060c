#include "src/compress/error_feedback.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "src/compress/efsignsgd.h"
#include "src/compress/topk.h"
#include "src/util/rng.h"

namespace espresso {
namespace {

// Normal draws with ±0, ±inf, ±NaN and denormals riveted in. An add of two NaNs may
// return either one (IEEE 754 leaves the choice open, and a compiler may swap a
// commutative add's operands), so each edge value keeps its coordinate on every step:
// wherever two NaNs meet in an add, they are the same NaN.
std::vector<float> EdgeGradient(size_t n, int step) {
  std::vector<float> g(n);
  Rng rng(DeriveSeed(40, static_cast<uint64_t>(step)));
  rng.FillNormal(g, 0.0, 1.0);
  const float inf = std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < n; ++i) {
    switch (i % 23) {
      case 1: g[i] = 0.0f; break;
      case 4: g[i] = -0.0f; break;
      case 7: g[i] = std::numeric_limits<float>::denorm_min(); break;
      case 10: g[i] = -1e-42f; break;
      case 13: g[i] = inf; break;
      case 16: g[i] = -inf; break;
      case 19: g[i] = std::numeric_limits<float>::quiet_NaN(); break;
      case 21: g[i] = -std::numeric_limits<float>::quiet_NaN(); break;
      default: break;
    }
  }
  return g;
}

bool SameFloats(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Bit for bit, over five steps: the payload is the compression of the corrected
// gradient, and the residual is that gradient minus the payload decoded into zeros,
// both computed here the long way.
TEST(ErrorFeedback, ResidualIsCompressionError) {
  struct Case {
    const char* label;
    CompressorConfig config;
    PayloadKind kind;  // the payload form of the first step
  };
  const Case cases[] = {
      {"topk-1.0", {.algorithm = "topk", .ratio = 1.0}, PayloadKind::kSparse},
      {"topk-0.1", {.algorithm = "topk", .ratio = 0.1}, PayloadKind::kSparse},
      {"randomk", {.algorithm = "randomk", .ratio = 0.25}, PayloadKind::kSparse},
      {"threshold-sparse", {.algorithm = "threshold", .threshold = 2.5},
       PayloadKind::kSparse},
      {"threshold-dense", {.algorithm = "threshold", .threshold = 0.01},
       PayloadKind::kRaw},
      {"efsignsgd", {.algorithm = "efsignsgd"}, PayloadKind::kPackedBits},
      {"fp16", {.algorithm = "fp16"}, PayloadKind::kRaw},
  };
  const size_t n = 230;
  for (const Case& c : cases) {
    const auto compressor = CreateCompressor(c.config);
    for (double momentum : {0.0, 0.9}) {
      ErrorFeedback ef(momentum);
      std::vector<float> residual(n, 0.0f);
      std::vector<float> velocity(n, 0.0f);
      for (int step = 0; step < 5; ++step) {
        const std::vector<float> grad = EdgeGradient(n, step);
        const uint64_t seed = 100 + static_cast<uint64_t>(step);
        std::vector<float> corrected(n);
        for (size_t i = 0; i < n; ++i) {
          if (momentum > 0.0) {
            velocity[i] = static_cast<float>(momentum) * velocity[i] + grad[i];
            corrected[i] = velocity[i] + residual[i];
          } else {
            corrected[i] = grad[i] + residual[i];
          }
        }
        CompressedTensor want;
        compressor->Compress(corrected, seed, &want);
        std::vector<float> decoded(n, 0.0f);
        compressor->DecompressAdd(want, decoded);
        for (size_t i = 0; i < n; ++i) {
          residual[i] = corrected[i] - decoded[i];
        }

        CompressedTensor got;
        ef.CompressWithFeedback(*compressor, 0, grad, seed, &got);
        const std::string where = std::string(c.label) + " momentum " +
                                  std::to_string(momentum) + " step " +
                                  std::to_string(step);
        if (step == 0) {
          ASSERT_EQ(got.kind, c.kind) << where;  // later steps may switch form
        }
        ASSERT_EQ(got.kind, want.kind) << where;
        ASSERT_EQ(got.indices, want.indices) << where;
        ASSERT_TRUE(SameFloats(got.values, want.values)) << where;
        ASSERT_EQ(got.bytes, want.bytes) << where;
        ASSERT_TRUE(SameFloats(got.scales, want.scales)) << where;
        ASSERT_TRUE(SameFloats(ef.residual(0), residual)) << where;
      }
    }
  }
}

TEST(ErrorFeedback, TelescopesAcrossSteps) {
  // Over many steps, sum(decompressed) + residual == sum(grads): nothing is lost.
  TopKCompressor c(0.1);
  ErrorFeedback ef;
  const size_t n = 64;
  std::vector<double> grad_sum(n, 0.0);
  std::vector<double> sent_sum(n, 0.0);
  Rng rng(2);
  for (int step = 0; step < 20; ++step) {
    std::vector<float> grad(n);
    rng.FillNormal(grad, 0.0, 1.0);
    for (size_t i = 0; i < n; ++i) {
      grad_sum[i] += grad[i];
    }
    CompressedTensor payload;
    ef.CompressWithFeedback(c, 7, grad, 0, &payload);
    std::vector<float> decompressed(n, 0.0f);
    c.DecompressAdd(payload, decompressed);
    for (size_t i = 0; i < n; ++i) {
      sent_sum[i] += decompressed[i];
    }
  }
  const auto residual = ef.residual(7);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sent_sum[i] + residual[i], grad_sum[i], 1e-4);
  }
}

TEST(ErrorFeedback, EventuallyTransmitsSuppressedCoordinates) {
  // A small-but-persistent coordinate must eventually be sent thanks to accumulation.
  TopKCompressor c(0.1);  // keeps 1 of 10
  ErrorFeedback ef;
  std::vector<float> grad(10, 0.0f);
  grad[3] = 1.0f;    // dominating coordinate
  grad[6] = 0.201f;  // suppressed at first
  bool coordinate6_sent = false;
  for (int step = 0; step < 10 && !coordinate6_sent; ++step) {
    CompressedTensor payload;
    ef.CompressWithFeedback(c, 0, grad, 0, &payload);
    for (uint32_t idx : payload.indices) {
      if (idx == 6) {
        coordinate6_sent = true;
      }
    }
  }
  EXPECT_TRUE(coordinate6_sent);
}

TEST(ErrorFeedback, SeparateTensorsHaveSeparateResiduals) {
  EfSignSgdCompressor c;
  ErrorFeedback ef;
  std::vector<float> a = {1.0f, 2.0f};
  std::vector<float> b = {-3.0f};
  CompressedTensor pa, pb;
  ef.CompressWithFeedback(c, 1, a, 0, &pa);
  ef.CompressWithFeedback(c, 2, b, 0, &pb);
  EXPECT_EQ(ef.residual(1).size(), 2u);
  EXPECT_EQ(ef.residual(2).size(), 1u);
  EXPECT_TRUE(ef.residual(3).empty());
}

TEST(MomentumCorrection, ReducesToPlainEfAtZero) {
  TopKCompressor c(0.2);
  ErrorFeedback plain;
  ErrorFeedback zero_momentum(0.0);
  std::vector<float> grad(40);
  Rng rng(4);
  rng.FillNormal(grad, 0.0, 1.0);
  CompressedTensor a, b;
  plain.CompressWithFeedback(c, 0, grad, 0, &a);
  zero_momentum.CompressWithFeedback(c, 0, grad, 0, &b);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.values, b.values);
}

TEST(MomentumCorrection, AmplifiesPersistentGradientsLikeLocalMomentum) {
  // DGC's momentum correction makes the transmitted stream behave as if momentum SGD
  // ran before compression: for a constant gradient g the velocity converges to
  // g / (1 - m), so the per-step transmitted mass approaches that amplified value.
  TopKCompressor c(0.5);
  std::vector<float> grad(8, 0.0f);
  grad[0] = 1.0f;
  grad[1] = 0.8f;
  auto transmitted_total = [&](double momentum) {
    ErrorFeedback ef(momentum);
    double total = 0.0;
    for (int step = 0; step < 60; ++step) {
      CompressedTensor payload;
      ef.CompressWithFeedback(c, 0, grad, 0, &payload);
      std::vector<float> out(8, 0.0f);
      c.DecompressAdd(payload, out);
      total += out[0];
    }
    return total;
  };
  const double plain = transmitted_total(0.0);
  const double with_momentum = transmitted_total(0.9);
  // 60 steps of g=1: plain sends ~60; with m=0.9 the discounted sum is ~60/(1-0.9)
  // minus the ramp-up — several times larger.
  EXPECT_NEAR(plain, 60.0, 2.0);
  EXPECT_GT(with_momentum, plain * 5.0);
  EXPECT_LT(with_momentum, plain * 10.0);
}

TEST(MomentumCorrection, StillTelescopesNothingLost) {
  // With momentum m, the transmitted total converges to the discounted gradient sum:
  // sum(decompressed) + residual == sum over t of u_t.
  TopKCompressor c(0.25);
  ErrorFeedback ef(0.5);
  const size_t n = 32;
  Rng rng(5);
  std::vector<double> u_sum(n, 0.0);
  std::vector<double> velocity(n, 0.0);
  std::vector<double> sent(n, 0.0);
  for (int step = 0; step < 30; ++step) {
    std::vector<float> grad(n);
    rng.FillNormal(grad, 0.0, 1.0);
    for (size_t i = 0; i < n; ++i) {
      velocity[i] = 0.5 * velocity[i] + grad[i];
      u_sum[i] += velocity[i];
    }
    CompressedTensor payload;
    ef.CompressWithFeedback(c, 1, grad, 0, &payload);
    std::vector<float> decompressed(n, 0.0f);
    c.DecompressAdd(payload, decompressed);
    for (size_t i = 0; i < n; ++i) {
      sent[i] += decompressed[i];
    }
  }
  const auto residual = ef.residual(1);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sent[i] + residual[i], u_sum[i], 1e-3);
  }
}

TEST(MomentumCorrectionDeathTest, RejectsInvalidMomentum) {
  EXPECT_DEATH(ErrorFeedback(-0.1), "");
  EXPECT_DEATH(ErrorFeedback(1.0), "");
}

TEST(ErrorFeedback, ResetClearsState) {
  EfSignSgdCompressor c;
  ErrorFeedback ef;
  std::vector<float> a = {1.0f, 2.0f};
  CompressedTensor payload;
  ef.CompressWithFeedback(c, 1, a, 0, &payload);
  ef.Reset();
  EXPECT_TRUE(ef.residual(1).empty());
}

}  // namespace
}  // namespace espresso
