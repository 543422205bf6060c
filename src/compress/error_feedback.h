// Error-feedback memory (Karimireddy et al. [29], Lin et al. [36]).
//
// Each (worker, tensor) pair keeps a residual r. On every step the corrected gradient
// c = g + r is compressed, and the new residual is r' = c - decompress(compress(c)).
// This telescopes the compression error and is what lets sparsifiers/quantizers preserve
// convergence (§2.3, §5.4 of the paper).
#ifndef SRC_COMPRESS_ERROR_FEEDBACK_H_
#define SRC_COMPRESS_ERROR_FEEDBACK_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/compress/compressor.h"

namespace espresso {

class ErrorFeedback {
 public:
  // `momentum` enables DGC's momentum correction [36]: the residual accumulates the
  // momentum-corrected gradient u_t = momentum * u_{t-1} + g_t instead of g_t itself,
  // so coordinates suppressed by sparsification keep their momentum history.
  // momentum = 0 (default) is plain error feedback.
  explicit ErrorFeedback(double momentum = 0.0);

  // Compresses grad for the tensor identified by `tensor_id`, applying and updating the
  // residual. `seed` is forwarded to the compressor.
  void CompressWithFeedback(const Compressor& compressor, uint64_t tensor_id,
                            std::span<const float> grad, uint64_t seed, CompressedTensor* out);

  // Folds a payload that was LOST on the wire back into the residual. After
  // CompressWithFeedback, the residual is corrected - decompress(payload); if the
  // payload never reaches the aggregation, the whole corrected gradient should carry
  // over, so residual += decompress(payload) restores it. This is how graceful
  // degradation preserves a dropped update instead of silently discarding it.
  void AbsorbLostPayload(const Compressor& compressor, uint64_t tensor_id,
                         const CompressedTensor& payload);

  // Read-only access to the residual (empty span if none yet). Exposed for tests, which
  // verify the telescoping identity residual = corrected - decompressed.
  std::span<const float> residual(uint64_t tensor_id) const;

  void Reset() {
    residuals_.clear();
    velocities_.clear();
  }

  double momentum() const { return momentum_; }

 private:
  double momentum_ = 0.0;
  std::unordered_map<uint64_t, std::vector<float>> residuals_;
  std::unordered_map<uint64_t, std::vector<float>> velocities_;  // momentum-corrected u_t
  std::vector<float> scratch_;  // corrected gradient, reused per call
  std::vector<float> decompressed_scratch_;  // DecompressAdd target, reused per call
};

}  // namespace espresso

#endif  // SRC_COMPRESS_ERROR_FEEDBACK_H_
