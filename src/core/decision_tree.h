// The decision-tree abstraction (§4.2, Figures 7-8): enumerates every valid compression
// option for a tensor under the paper's three pruning rules:
//   1. an action task may only follow one of its valid connections (compress only when
//      the payload is uncompressed, decompress only when it is compressed, ...);
//   2. communication tasks must match their step (Comm1/Comm1_c only as first steps of
//      divisible schemes, Comm2/Comm2_c only as second steps);
//   3. first/second-step routines must pair by topology: Reduce-scatter and Alltoall
//      shard the tensor, so their second step is an Allgather; Reduce and Gather root
//      it, so their second step is a Broadcast.
// Intra-machine steps use divisible schemes only (§4.2.1, Dimension 4), and the
// decompress-aggregate-recompress stage of a divisible scheme may be skipped when the
// algorithm aggregates in the compressed domain (§4.2.2 footnote; shared-seed Random-k).
//
// EnumerateOptions returns the structural tree (every path, devices fixed to GPU);
// multiplying in the independent GPU/CPU choice per compress/decompress op gives the
// full |C| that §4.4.1 counts. CandidateOptions returns the pruned per-tensor candidate
// set Algorithm 1 scores — the elimination step that makes selection take milliseconds
// rather than hours (§4.4.2).
#ifndef SRC_CORE_DECISION_TREE_H_
#define SRC_CORE_DECISION_TREE_H_

#include <cstddef>
#include <vector>

#include "src/core/option.h"

namespace espresso {

struct TreeConfig {
  size_t machines = 8;
  size_t gpus_per_machine = 8;
  // Whether the GC algorithm can aggregate payloads without decompression.
  bool supports_compressed_aggregation = false;
  // User constraint (§4.2.2 "users can manually add constraints to prune the decision
  // tree"): maximum number of compression operations per tensor, to bound the
  // accumulated compression error of re-compressing pipelines. 0 = unlimited.
  size_t max_compress_ops = 0;

  bool Hierarchical() const { return machines > 1 && gpus_per_machine > 1; }
};

struct OptionSpace {
  std::vector<CompressionOption> options;  // structural paths, devices all-GPU

  // |C|: structural paths times the 2^slots device assignments of each.
  size_t TotalWithDeviceChoices() const;
};

// Every valid path through the decision tree (deduplicated).
OptionSpace EnumerateOptions(const TreeConfig& config);

// The option an uncompressed tensor uses by default: the standard hierarchical
// reduce-scatter / allreduce / allgather pipeline (BytePS-style), or flat allreduce when
// the cluster has a single communication level.
CompressionOption DefaultUncompressedOption(const TreeConfig& config);

// The pruned candidate set used by Algorithm 1's GetBestOption: representative options
// covering all four dimensions (inter-only indivisible & divisible, intra+inter, flat,
// plus uncompressed scheme changes), devices fixed to GPU. Dominated tree paths (e.g.
// rooted intra variants, which the cost model never prefers at these fan-outs) are
// eliminated here — this is the interaction-analysis pruning of §4.4.2.
std::vector<CompressionOption> CandidateOptions(const TreeConfig& config);

// Validates an option against the pruning rules; used by property tests (every
// enumerated path must validate) and by users adding hand-built options.
bool ValidateOption(const TreeConfig& config, const CompressionOption& option);

}  // namespace espresso

#endif  // SRC_CORE_DECISION_TREE_H_
