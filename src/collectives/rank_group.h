// In-process model of a group of data-parallel ranks.
//
// Collectives in this library are *functional*: the N ranks live in one process as N
// buffers, and each collective performs exactly the data movement its MPI/NCCL
// counterpart would. The compressed schemes also return byte counts so tests can
// cross-check the analytic cost model's traffic arithmetic. Timing is supplied
// separately by src/costmodel.
#ifndef SRC_COLLECTIVES_RANK_GROUP_H_
#define SRC_COLLECTIVES_RANK_GROUP_H_

#include <cstddef>
#include <vector>

namespace espresso {

// One float buffer per rank. All collectives require equal sizes across ranks.
using RankBuffers = std::vector<std::vector<float>>;

// Traffic accounting for one collective call.
struct CollectiveTraffic {
  size_t bytes_sent_per_rank = 0;  // bytes each rank puts on the wire
  size_t communication_steps = 0;  // number of sequential transfer rounds
};

// Splits [0, elements) into `parts` near-equal contiguous ranges; range p is
// [Offset(p), Offset(p) + Length(p)). Used by divisible schemes and reduce-scatter.
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
