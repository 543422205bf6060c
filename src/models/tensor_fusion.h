// MergeComp-style tensor fusion ([69], the compression scheduler the paper's fused
// aggregation kernels come from): merges consecutive backward-order tensors into
// buckets of at most `bucket_bytes`. Fusion trades per-tensor overheads (collective
// latency terms, kernel launches — the constants behind Figure 10) against pipelining:
// a bucket cannot start communicating until its LAST member's gradient is ready, so the
// fused profile's bucket carries the sum of its members' backward times.
//
// Espresso composes with fusion: selection simply runs on the fused profile
// (`espresso_paper ablation`, section (e), measures the effect on ResNet101's 314 tensors).
#ifndef SRC_MODELS_TENSOR_FUSION_H_
#define SRC_MODELS_TENSOR_FUSION_H_

#include <cstddef>

#include "src/models/model_profile.h"

namespace espresso {

// Greedy bucketing in backward order. Every bucket holds at least one tensor; a tensor
// already larger than `bucket_bytes` forms its own bucket. bucket_bytes == 0 returns
// the profile unchanged.
ModelProfile FuseTensors(const ModelProfile& model, size_t bucket_bytes);

}  // namespace espresso

#endif  // SRC_MODELS_TENSOR_FUSION_H_
