// Communication schemes for compressed tensors (Table 2, Figures 3-4).
//
// Indivisible scheme (Figure 3): one communication op. Each rank compresses its tensor
// and allgathers the payloads; every rank then decompresses and aggregates all of them.
//
// Divisible scheme (Figure 4): two communication ops. Each rank compresses each of the
// N index-range parts of its tensor and alltoall-shuffles them; rank j decompresses and
// aggregates the j-th parts, re-compresses the aggregate, and the second op allgathers
// those payloads; finally every rank decompresses all parts. When the compressor
// supports compressed-domain aggregation (shared-seed Random-k), the middle
// decompress-aggregate-recompress stage can be skipped (§4.2.2 footnote).
//
// Every rank keeps its own ErrorFeedback so convergence tests exercise the real
// error-compensated pipeline.
#ifndef SRC_COLLECTIVES_SCHEMES_H_
#define SRC_COLLECTIVES_SCHEMES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/collectives/channel.h"
#include "src/collectives/rank_group.h"
#include "src/compress/compressor.h"
#include "src/compress/error_feedback.h"
#include "src/mem/workspace.h"

namespace espresso {

struct SchemeResult {
  CollectiveTraffic traffic;
  size_t compress_calls = 0;
  size_t decompress_calls = 0;
  // Fault accounting (zero on a perfect channel). A dropped payload is excluded from
  // aggregation; when error feedback is on, its content is folded back into the
  // sender's residual so the update is delayed rather than lost.
  size_t payloads_dropped = 0;
  size_t payloads_corrupted = 0;
};

// Per-call context: one ErrorFeedback per rank (may be null to disable EF), a tensor id
// for the residual store, and the compression seed shared by all ranks this step.
// `channel` (optional) routes each rank's uplink payload through an imperfect
// transport; the second-stage (already aggregated) payloads are considered local.
struct SchemeContext {
  std::vector<ErrorFeedback>* feedback = nullptr;  // size == ranks, or nullptr
  PayloadChannel* channel = nullptr;               // nullptr = perfect network
  uint64_t tensor_id = 0;
  uint64_t seed = 0;
  // Scratch source (payload sets, delivery flags, aggregation buffers). nullptr
  // resolves to the calling thread's default workspace.
  mem::CollectiveWorkspace* workspace = nullptr;
};

// Figure 3. On return every rank buffer holds the aggregated (decompressed) result.
SchemeResult CompressedIndivisibleAllgather(const Compressor& compressor,
                                            const SchemeContext& ctx, RankBuffers& buffers);

// Figure 4 with Alltoall as the first op and Allgather as the second.
SchemeResult CompressedDivisibleAlltoall(const Compressor& compressor,
                                         const SchemeContext& ctx, RankBuffers& buffers);

}  // namespace espresso

#endif  // SRC_COLLECTIVES_SCHEMES_H_
