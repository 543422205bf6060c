// CollectiveWorkspace: the per-thread bundle of pools and named scratch that the
// compressed communication schemes (src/collectives/schemes.h) draw from.
//
// Three tiers (docs/MEMORY.md):
//   - `arena`:  ephemeral per-call spans (delivery flags), rewound by ArenaScope as
//               each call unwinds;
//   - `pool`:   variable-size float/byte buffers leased for the duration of a call;
//   - named members: fixed-shape persistent scratch resized in place by the single
//               call site that owns each member (resize keeps surviving elements'
//               capacities, so steady-state reuse is allocation-free).
//
// Every scheme takes an optional `CollectiveWorkspace*` through its SchemeContext;
// passing nullptr resolves to this thread's ThreadDefault() instance. A workspace
// must only ever be used from one thread at a time, and ownership of each named
// member is strictly one call site.
#ifndef SRC_MEM_WORKSPACE_H_
#define SRC_MEM_WORKSPACE_H_

#include <vector>

#include "src/compress/compressed_tensor.h"
#include "src/mem/arena.h"
#include "src/mem/buffer_pool.h"

namespace espresso::mem {

struct CollectiveWorkspace {
  BufferPool pool{"collective"};
  Arena arena;

  // Named persistent scratch. Each member is owned by exactly one function (noted
  // below); owners resize in place and fully overwrite live elements each call.
  std::vector<CompressedTensor> indiv_payloads;             // CompressedIndivisibleAllgather
  std::vector<std::vector<CompressedTensor>> div_payloads;  // divisible scheme, stage 1
  std::vector<CompressedTensor> div_aggregated;             // divisible scheme, stage 2

  // The calling thread's shared workspace (created on first use, lives for the
  // thread). Pools converge after the first step at a given problem shape, so
  // long-lived worker threads reach the zero-allocation steady state.
  static CollectiveWorkspace& ThreadDefault();
};

// nullptr -> this thread's default workspace.
inline CollectiveWorkspace& Resolve(CollectiveWorkspace* ws) {
  return ws != nullptr ? *ws : CollectiveWorkspace::ThreadDefault();
}

}  // namespace espresso::mem

#endif  // SRC_MEM_WORKSPACE_H_
