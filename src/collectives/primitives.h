// Reference aggregation for the in-process rank model. The strategy executor
// (src/ddl/strategy_executor.h) performs every routine, compressed or not; this is the
// ground truth its results and the benches are checked against.
#ifndef SRC_COLLECTIVES_PRIMITIVES_H_
#define SRC_COLLECTIVES_PRIMITIVES_H_

#include <vector>

#include "src/collectives/rank_group.h"

namespace espresso {

// The elementwise sum of all rank buffers, accumulated 0 + b0 + b1 + ... in rank order.
std::vector<float> NaiveSum(const RankBuffers& buffers);

}  // namespace espresso

#endif  // SRC_COLLECTIVES_PRIMITIVES_H_
