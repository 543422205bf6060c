// CollectiveWorkspace: the per-thread bundle of named scratch that the compressed
// communication schemes (src/collectives/schemes.h) draw from.
//
// Every member is persistent scratch resized in place by the call that uses it
// (resize keeps surviving elements' capacities and assign keeps the vector's, so
// steady-state reuse is allocation-free; docs/MEMORY.md).
//
// Every scheme takes an optional `CollectiveWorkspace*` through its SchemeContext;
// passing nullptr resolves to this thread's ThreadDefault() instance. A workspace
// must only ever be used from one thread at a time.
#ifndef SRC_MEM_WORKSPACE_H_
#define SRC_MEM_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "src/compress/compressed_tensor.h"

namespace espresso::mem {

struct CollectiveWorkspace {
  // Each payload member is owned by exactly one function (noted below); owners resize
  // in place and fully overwrite live elements each call.
  std::vector<CompressedTensor> indiv_payloads;             // CompressedIndivisibleAllgather
  std::vector<std::vector<CompressedTensor>> div_payloads;  // divisible scheme, stage 1
  std::vector<CompressedTensor> div_aggregated;             // divisible scheme, stage 2
  // Call-scoped: each scheme rewrites these on entry and is done with them on return.
  std::vector<uint8_t> delivered;  // per-payload delivery flags, both schemes
  std::vector<float> part_scratch;  // divisible scheme: one part's decoded sum or zeros

  // The calling thread's shared workspace (created on first use, lives for the
  // thread). Members converge after the first step at a given problem shape, so
  // long-lived worker threads reach the zero-allocation steady state.
  static CollectiveWorkspace& ThreadDefault();
};

// nullptr -> this thread's default workspace.
inline CollectiveWorkspace& Resolve(CollectiveWorkspace* ws) {
  return ws != nullptr ? *ws : CollectiveWorkspace::ThreadDefault();
}

}  // namespace espresso::mem

#endif  // SRC_MEM_WORKSPACE_H_
