// In-process model of a group of data-parallel ranks.
//
// Collectives in this library are *functional*: the N ranks live in one process as N
// buffers, and the strategy executor (src/ddl/strategy_executor.h) performs exactly the
// data movement each routine's MPI/NCCL counterpart would. Nothing counts the bytes it
// moves; timing is supplied separately by src/costmodel.
#ifndef SRC_COLLECTIVES_RANK_GROUP_H_
#define SRC_COLLECTIVES_RANK_GROUP_H_

#include <cstddef>
#include <vector>

namespace espresso {

// One float buffer per rank. All collectives require equal sizes across ranks.
using RankBuffers = std::vector<std::vector<float>>;

// Splits [0, elements) into `parts` near-equal contiguous ranges; range p is
// [Offset(p), Offset(p) + Length(p)). Used by the executor's reduce-scatter and
// alltoall.
struct Partition {
  Partition(size_t elements, size_t parts);

  size_t Offset(size_t part) const;
  size_t Length(size_t part) const;

  size_t elements;
  size_t parts;
};

// Verifies all rank buffers have identical size and returns it.
size_t CheckUniformSize(const RankBuffers& buffers);

}  // namespace espresso

#endif  // SRC_COLLECTIVES_RANK_GROUP_H_
