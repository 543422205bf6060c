// Payload fates (src/collectives/channel.h): their rates, silent corruption, and their
// independence from the order and the thread they are drawn on. The strategy executor
// draws each sender's fates on whichever pool slot runs that sender, so a fate and the
// bytes it leaves must depend only on (seed, iteration, rank, wire id).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/collectives/channel.h"
#include "src/fault/fault_plan.h"
#include "src/util/thread_pool.h"

namespace espresso {
namespace {

FaultPlan DataPathPlan(double drop, double corrupt, uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  spec.drop_probability = drop;
  spec.corrupt_probability = corrupt;
  return FaultPlan(spec);
}

TEST(PayloadFaults, FateRatesTrackProbabilities) {
  const FaultPlan plan = DataPathPlan(0.10, 0.05, 5);
  size_t dropped = 0, corrupted = 0;
  const size_t trials = 5000;
  CompressedTensor payload;
  for (uint64_t i = 0; i < trials; ++i) {
    switch (DrawPayloadFate(plan.PayloadFaultsAt(i), i % 8, i % 33, &payload)) {
      case PayloadFate::kDropped: ++dropped; break;
      case PayloadFate::kCorrupted: ++corrupted; break;
      case PayloadFate::kDelivered: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(dropped) / trials, 0.10, 0.02);
  EXPECT_NEAR(static_cast<double>(corrupted) / trials, 0.05, 0.015);
}

TEST(PayloadFaults, DeliversCorruptionSilently) {
  CompressedTensor payload;
  payload.original_elements = 4;
  payload.indices = {0, 1};
  payload.values = {1.0f, 2.0f};
  const CompressedTensor before = payload;
  EXPECT_EQ(DrawPayloadFate(DataPathPlan(0.0, 1.0, 9).PayloadFaultsAt(0), 0, 0, &payload),
            PayloadFate::kCorrupted);
  // The network hands the mangled payload to the receiver.
  EXPECT_TRUE(payload.indices != before.indices || payload.values != before.values);
}

// One payload of each layout the corruption distinguishes: values (sparse), bytes
// (packed, with a scale), scales only, indices only, and empty.
std::vector<CompressedTensor> Layouts() {
  std::vector<CompressedTensor> layouts(5);
  layouts[0].indices = {1, 4, 9};
  layouts[0].values = {0.5f, -1.25f, 3.0f};
  layouts[1].kind = PayloadKind::kPackedBits;
  layouts[1].bytes = {0x12, 0x34, 0x56, 0x78, 0x9a};
  layouts[1].scales = {0.75f};
  layouts[2].kind = PayloadKind::kPackedBits;
  layouts[2].scales = {2.0f, -4.0f};
  layouts[3].indices = {3, 7, 11, 15};
  layouts[4].kind = PayloadKind::kRaw;
  return layouts;
}

// A payload's contents as bytes, container by container.
std::vector<uint8_t> Bytes(const CompressedTensor& payload) {
  std::vector<uint8_t> out;
  auto append = [&out](const auto& container) {
    const size_t size = container.size() * sizeof(container[0]);
    const size_t at = out.size();
    out.resize(at + size);
    if (size > 0) {
      std::memcpy(out.data() + at, container.data(), size);
    }
  };
  append(payload.indices);
  append(payload.values);
  append(payload.bytes);
  append(payload.scales);
  return out;
}

// A grid of (iteration, rank, wire id) cells, each with a payload of every layout,
// drawn serially, in reverse and from a ParallelFor: the fates and the bytes they leave
// must agree cell for cell.
TEST(PayloadFaults, FatesDoNotDependOnDrawOrderOrThread) {
  const FaultPlan plan = DataPathPlan(0.2, 0.5, 77);
  const std::vector<CompressedTensor> layouts = Layouts();
  const uint64_t iterations[] = {0, 1, 12};
  const uint64_t ranks[] = {0, 3, 63};
  // A whole-range payload's tensor id, and alltoall parts 0 and 5 of tensor 7.
  const uint64_t wire_ids[] = {7, 7 * 1315423911ULL, 7 * 1315423911ULL + 5};
  struct Cell {
    PayloadFaults faults;
    uint64_t rank;
    uint64_t wire_id;
    size_t layout;
  };
  std::vector<Cell> cells;
  for (const uint64_t iteration : iterations) {
    for (const uint64_t rank : ranks) {
      for (const uint64_t wire_id : wire_ids) {
        for (size_t layout = 0; layout < layouts.size(); ++layout) {
          cells.push_back({plan.PayloadFaultsAt(iteration), rank, wire_id, layout});
        }
      }
    }
  }
  struct Drawn {
    std::vector<PayloadFate> fates;
    std::vector<CompressedTensor> payloads;
  };
  auto fresh = [&]() {
    Drawn drawn;
    drawn.fates.assign(cells.size(), PayloadFate::kDelivered);
    for (const Cell& cell : cells) {
      drawn.payloads.push_back(layouts[cell.layout]);
    }
    return drawn;
  };
  auto draw = [&](Drawn& drawn, size_t k) {
    drawn.fates[k] = DrawPayloadFate(cells[k].faults, cells[k].rank, cells[k].wire_id,
                                     &drawn.payloads[k]);
  };

  Drawn forward = fresh();
  for (size_t k = 0; k < cells.size(); ++k) {
    draw(forward, k);
  }
  Drawn reverse = fresh();
  for (size_t k = cells.size(); k-- > 0;) {
    draw(reverse, k);
  }
  Drawn parallel = fresh();
  ParallelFor(std::max<size_t>(2, UsableCpus()), cells.size(),
              [&](size_t k, size_t) { draw(parallel, k); });

  size_t seen[3] = {0, 0, 0};
  for (size_t k = 0; k < cells.size(); ++k) {
    const std::vector<uint8_t> bytes = Bytes(forward.payloads[k]);
    EXPECT_EQ(reverse.fates[k], forward.fates[k]) << "cell " << k;
    EXPECT_EQ(parallel.fates[k], forward.fates[k]) << "cell " << k;
    EXPECT_EQ(Bytes(reverse.payloads[k]), bytes) << "cell " << k;
    EXPECT_EQ(Bytes(parallel.payloads[k]), bytes) << "cell " << k;
    ++seen[static_cast<size_t>(forward.fates[k])];
    // Only a corruption changes a payload, and an empty one has nothing to change.
    const bool changed = bytes != Bytes(layouts[cells[k].layout]);
    const bool empty = cells[k].layout == 4;
    EXPECT_EQ(changed, forward.fates[k] == PayloadFate::kCorrupted && !empty)
        << "cell " << k;
  }
  // The grid meets every fate, so the comparison above covers each.
  EXPECT_GT(seen[static_cast<size_t>(PayloadFate::kDelivered)], 0u);
  EXPECT_GT(seen[static_cast<size_t>(PayloadFate::kDropped)], 0u);
  EXPECT_GT(seen[static_cast<size_t>(PayloadFate::kCorrupted)], 0u);
}

}  // namespace
}  // namespace espresso
