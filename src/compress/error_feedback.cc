#include "src/compress/error_feedback.h"

#include "src/util/logging.h"

namespace espresso {

ErrorFeedback::ErrorFeedback(double momentum) : momentum_(momentum) {
  ESP_CHECK_GE(momentum, 0.0);
  ESP_CHECK_LT(momentum, 1.0);
}

void ErrorFeedback::CompressWithFeedback(const Compressor& compressor, uint64_t tensor_id,
                                         std::span<const float> grad, uint64_t seed,
                                         CompressedTensor* out) {
  ESP_CHECK(out != nullptr);
  auto& residual = residuals_[tensor_id];
  if (residual.size() != grad.size()) {
    residual.assign(grad.size(), 0.0f);
  }
  scratch_.resize(grad.size());
  if (momentum_ > 0.0) {
    // DGC momentum correction: u_t = m * u_{t-1} + g_t; corrected = residual + u_t.
    auto& velocity = velocities_[tensor_id];
    if (velocity.size() != grad.size()) {
      velocity.assign(grad.size(), 0.0f);
    }
    for (size_t i = 0; i < grad.size(); ++i) {
      velocity[i] = static_cast<float>(momentum_) * velocity[i] + grad[i];
      scratch_[i] = velocity[i] + residual[i];
    }
  } else {
    // corrected = grad + residual
    for (size_t i = 0; i < grad.size(); ++i) {
      scratch_[i] = grad[i] + residual[i];
    }
  }
  compressor.Compress(scratch_, seed, out);
  // residual' = corrected - decompress(payload). DecompressAdd adds, so decompress into
  // a zeroed scratch first. The scratch persists across calls (assign reuses capacity),
  // keeping the steady state allocation-free for stable tensor shapes.
  decompressed_scratch_.assign(grad.size(), 0.0f);
  compressor.DecompressAdd(*out, decompressed_scratch_);
  for (size_t i = 0; i < grad.size(); ++i) {
    residual[i] = scratch_[i] - decompressed_scratch_[i];
  }
}

void ErrorFeedback::AbsorbLostPayload(const Compressor& compressor, uint64_t tensor_id,
                                      const CompressedTensor& payload) {
  auto it = residuals_.find(tensor_id);
  ESP_CHECK(it != residuals_.end())
      << "AbsorbLostPayload without a prior CompressWithFeedback for tensor " << tensor_id;
  ESP_CHECK_EQ(it->second.size(), payload.original_elements);
  compressor.DecompressAdd(payload, it->second);
}

std::span<const float> ErrorFeedback::residual(uint64_t tensor_id) const {
  auto it = residuals_.find(tensor_id);
  if (it == residuals_.end()) {
    return {};
  }
  return it->second;
}

}  // namespace espresso
