#include "src/ddl/strategy_executor.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "src/mem/stable_vec.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace espresso {

namespace {

// Error-feedback residuals are keyed tensor * kIdStride + offset, one per compression
// site; part j of an alltoall crosses the channel as tensor * kIdStride + j.
constexpr uint64_t kIdStride = 1315423911ULL;

// One compressed payload together with the tensor range it decompresses into.
struct RangedPayload {
  size_t offset = 0;
  size_t length = 0;
  // Dropped by the channel: it travels on for its range but no receiver aggregates it.
  bool lost = false;
  CompressedTensor payload;
};

// Per-rank interpreter state: either a raw (sub-)vector of the tensor or a set of
// compressed payloads awaiting decompression/aggregation. `active` is false for ranks
// whose data was consumed by a rooted collective (Reduce/Gather). States persist in
// the workspace across executions; every field is reinitialized per run. `raw` is the
// caller's buffer, swapped in for the run and swapped back out at its end; payloads
// are capacity-keeping containers reused in place.
struct RankState {
  bool active = true;
  // When a rooted collective (Reduce/Gather) consumes a rank's data, the rank goes
  // dormant at that communication level until the matching Broadcast revives it:
  // 0 = machine level (intra phases), 1 = inter level, 2 = flat, -1 = not dormant.
  int dormant_level = -1;
  size_t offset = 0;
  size_t length = 0;
  std::vector<float> raw;                            // valid when payloads is empty
  mem::StableVec<RangedPayload> payloads;            // valid when non-empty
  bool pending_compress = false;  // a Comp op ran; the next comm compresses
  // Nonzero while `payloads` is still the verbatim copy of a replicated payload set
  // (compressed allgather/broadcast): every rank with the same id holds the same
  // bytes, so they all decode to the same floats. Any other write to `payloads`
  // resets it.
  uint64_t payload_set = 0;

  bool HasPayloads() const { return !payloads.empty(); }
};

// Splits a sparse payload covering `length` elements into the sub-range
// [sub_offset, sub_offset + sub_length): indices are re-based to the sub-range. Only
// sparse layouts split exactly; skip-style pipelines only arise for shared-seed
// Random-k, which is sparse. Writes into `part` (cleared first, capacity kept).
void SplitSparsePayload(const CompressedTensor& payload, size_t sub_offset,
                        size_t sub_length, CompressedTensor* part) {
  ESP_CHECK(payload.kind == PayloadKind::kSparse)
      << "only sparse payloads can be range-split";
  part->Clear();
  part->kind = PayloadKind::kSparse;
  part->original_elements = sub_length;
  for (size_t i = 0; i < payload.indices.size(); ++i) {
    const uint32_t index = payload.indices[i];
    if (index >= sub_offset && index < sub_offset + sub_length) {
      part->indices.push_back(static_cast<uint32_t>(index - sub_offset));
      part->values.push_back(payload.values[i]);
    }
  }
}

int PhaseLevel(CommPhase phase) {
  switch (phase) {
    case CommPhase::kIntraFirst:
    case CommPhase::kIntraSecond:
      return 0;
    case CommPhase::kInter:
      return 1;
    case CommPhase::kFlat:
      return 2;
  }
  return -1;
}

}  // namespace

// The workspace body lives here so it can hold the interpreter-internal types. A
// fanned-out op writes a rank's state, and slot i of a rank's alltoall inbox, from one
// thread only, so no two threads ever share a member. Every member only grows.
struct ExecutorWorkspace::Impl {
  std::vector<RankState> states;
  mem::StableVec<std::vector<size_t>> groups;        // BuildGroups output
  std::vector<mem::StableVec<RangedPayload>> inbox;  // alltoall: the parts each rank receives
  // Decompress: the ranks that decode their own payloads, the (rank, representative)
  // pairs that copy a replicated set's decode, and each set's representative.
  std::vector<size_t> decoders;
  std::vector<std::pair<size_t, size_t>> replicas;
  std::vector<size_t> representatives;
};

ExecutorWorkspace::ExecutorWorkspace() : impl_(std::make_unique<Impl>()) {}
ExecutorWorkspace::~ExecutorWorkspace() = default;

ExecutorWorkspace& ExecutorWorkspace::ThreadDefault() {
  thread_local ExecutorWorkspace workspace;
  return workspace;
}

namespace {

// An op fans out on the process pool only when it touches at least this many floats
// across its ranks; a smaller one runs inline on the caller, where a fan-out's submit,
// wake-up and wait cost more than the work they split. Measured on a shared 4-CPU AVX2
// host, 8 x 8 ranks, every candidate option, fanning every op out against running it
// inline: with DGC (top-k) the two break even near 2^14 floats per tensor, and fanning
// out is 1.4x faster at 2^15 and 2.3x at 2^18; with efsignsgd, whose ops only move
// memory, fanning out is 1.3x slower at 2^15 and breaks even between 2^17 and 2^18.
// Whole perfbench steps favour the lower grain anyway: with a 2^17 grain,
// exec-dgc-nvlink ran 6.7 against 12.1 steps/s and exec-efsignsgd-pcie 21.6 against
// 24.4 (one alternating pair without hypervisor steal); 2^13 was within 4% on both.
constexpr size_t kFanoutGrain = size_t{1} << 15;

// Group sums run block by block, so each block of the sum stays in cache while every
// member's slice streams past; a single group's sum fans out by block.
constexpr size_t kSumBlock = 4096;

// Comm routines whose members send compressed payloads: the alltoall and the gather
// always, the allgather and the broadcast when the op is compressed.
bool SendsPayloads(const Op& op) {
  switch (op.routine) {
    case Routine::kAlltoall:
    case Routine::kGather:
      return true;
    case Routine::kAllgather:
    case Routine::kBroadcast:
      return op.compressed;
    default:
      return false;
  }
}

class OptionExecutor {
 public:
  OptionExecutor(const CompressionOption& option, const ExecutorConfig& config,
                 uint64_t tensor_id, RankBuffers& buffers, ExecutorWorkspace::Impl& ws)
      : option_(option),
        config_(config),
        tensor_id_(tensor_id),
        buffers_(buffers),
        elements_(CheckUniformSize(buffers)),
        ws_(ws),
        states_(ws.states) {
    ESP_CHECK_GT(config.machines, 0u) << "ExecutorConfig needs at least one machine";
    ESP_CHECK_GT(config.gpus_per_machine, 0u)
        << "ExecutorConfig needs at least one GPU per machine";
    ESP_CHECK_EQ(buffers.size(), config.ranks())
        << "buffer count must match the rank topology (machines=" << config.machines
        << " x gpus_per_machine=" << config.gpus_per_machine << ")";
    ESP_CHECK_GT(elements_, 0u) << "rank buffers must be non-empty";
    if (config.feedback != nullptr) {
      ESP_CHECK_EQ(config.feedback->size(), config.ranks())
          << "error-feedback store count must match the rank topology";
    }
    if (option.Compressed()) {
      ESP_CHECK(config.compressor != nullptr) << "compressed option needs a compressor";
    }
    ESP_CHECK(!option.ops.empty()) << "option has no ops: " << option.Describe();
    states_.resize(config.ranks());
    for (size_t r = 0; r < states_.size(); ++r) {
      RankState& s = states_[r];
      s.active = true;
      s.dormant_level = -1;
      s.offset = 0;
      s.length = elements_;
      // Run in the caller's buffer: no intermediate range exceeds elements_, so the
      // allocation never moves and Run() hands it back.
      s.raw.swap(buffers[r]);
      s.payloads.clear();
      s.pending_compress = false;
      s.payload_set = 0;
    }
  }

  ChannelTally Run() {
    for (const Op& op : option_.ops) {
      switch (op.task) {
        case ActionTask::kCompress:
          for (RankState& s : states_) {
            if (s.active) {
              ESP_CHECK(!s.HasPayloads());
              s.pending_compress = true;
            }
          }
          break;
        case ActionTask::kDecompress:
          Decompress(op);
          break;
        case ActionTask::kComm:
          Communicate(op);
          break;
      }
    }
    // A valid option ends with every rank holding the full aggregated tensor.
    for (size_t r = 0; r < states_.size(); ++r) {
      RankState& s = states_[r];
      ESP_CHECK(s.active && !s.HasPayloads() && s.offset == 0 && s.length == elements_)
          << "option did not terminate replicated: " << option_.Describe();
      buffers_[r].swap(s.raw);
    }
    return tally_;
  }

 private:
  using Groups = mem::StableVec<std::vector<size_t>>;

  // The fan-out width of an op that touches `floats` floats across its ranks: 1 below
  // kFanoutGrain, the pool's width otherwise.
  static size_t Width(size_t floats) {
    return floats < kFanoutGrain ? 1 : GlobalThreadPool().num_threads();
  }

  // Calls fn(gi, inner_width) for every group gi. Several groups run in parallel,
  // each whole on one thread, so their routines get an inner width of 1; a single
  // group runs on the caller with the op's width, for its routine to split by member
  // or by sum block.
  template <typename Fn>
  void ForEachGroup(size_t width, const Groups& groups, const Fn& fn) const {
    if (groups.size() == 1) {
      fn(size_t{0}, width);
      return;
    }
    ParallelFor(width, groups.size(), [&](size_t gi, size_t) { fn(gi, size_t{1}); });
  }

  // Calls fn(gi, i) for member i of every group gi, split as ForEachGroup splits.
  template <typename Fn>
  void ForEachMember(size_t width, const Groups& groups, const Fn& fn) const {
    ForEachGroup(width, groups, [&](size_t gi, size_t inner) {
      ParallelFor(inner, groups[gi].size(), [&](size_t i, size_t) { fn(gi, i); });
    });
  }

  // Rank groups participating in a communication op of the given phase: machine groups
  // for intra phases; active ranks grouped by their current range for inter/flat (the
  // cross-machine column groups of Figure 1 fall out of the shared shard offsets).
  // The group lists live in the workspace; valid until the next BuildGroups call.
  Groups& BuildGroups(const Op& op) {
    // A Broadcast revives the ranks that a rooted first step (Reduce/Gather) at the
    // same communication level made dormant — they are recipients.
    const bool revive = op.routine == Routine::kBroadcast;
    const int level = PhaseLevel(op.phase);
    auto revived = [&](size_t r) {
      return !states_[r].active && revive && states_[r].dormant_level == level;
    };
    // An inter or flat group takes ranks first, first + stride, ...: the active ones
    // first and the revived ones second, each in rank order, so a Broadcast's root
    // (the group's front) holds live data.
    auto add_active_then_revived = [&](std::vector<size_t>& group, size_t first,
                                       size_t stride) {
      for (size_t r = first; r < states_.size(); r += stride) {
        if (states_[r].active) {
          group.push_back(r);
        }
      }
      for (size_t r = first; r < states_.size(); r += stride) {
        if (revived(r)) {
          group.push_back(r);
        }
      }
    };
    Groups& groups = ws_.groups;
    groups.clear();
    auto begin_group = [&]() -> std::vector<size_t>& {
      std::vector<size_t>& g = groups.push();
      g.clear();  // recycled storage: logical clear keeps capacity
      return g;
    };
    if (op.phase == CommPhase::kIntraFirst || op.phase == CommPhase::kIntraSecond) {
      for (size_t m = 0; m < config_.machines; ++m) {
        std::vector<size_t>& group = begin_group();
        for (size_t l = 0; l < config_.gpus_per_machine; ++l) {
          const size_t r = m * config_.gpus_per_machine + l;
          if (states_[r].active || revived(r)) {
            group.push_back(r);
          }
        }
        if (group.empty()) {
          groups.truncate(groups.size() - 1);
        }
      }
      return groups;
    }
    if (op.phase == CommPhase::kInter) {
      // Cross-machine column groups (Figure 1): the l-th GPU of every machine. Columns
      // whose ranks all went dormant at the machine level (rooted intra) sit out.
      for (size_t l = 0; l < config_.gpus_per_machine; ++l) {
        std::vector<size_t>& group = begin_group();
        add_active_then_revived(group, l, config_.gpus_per_machine);
        if (group.empty()) {
          groups.truncate(groups.size() - 1);
        }
      }
      return groups;
    }
    // Flat: one group over every participating rank.
    std::vector<size_t>& group = begin_group();
    add_active_then_revived(group, 0, 1);
    if (group.empty()) {
      groups.truncate(groups.size() - 1);
    }
    return groups;
  }

  // The error-feedback store of `rank`'s compression site while the option is still
  // at its FIRST compression site (nullptr after it, or without feedback). Residuals
  // are keyed by (tensor, offset), so each of a rank's sites keeps its own memory;
  // re-compressions at later stages (divisible middle stages, second steps) are
  // transient and carry no residual.
  ErrorFeedback* FirstSiteFeedback(size_t rank) const {
    return first_compression_ && config_.feedback != nullptr ? &(*config_.feedback)[rank]
                                                             : nullptr;
  }
  uint64_t ResidualKey(size_t offset) const { return tensor_id_ * kIdStride + offset; }

  // Fills `p` with rank `rank`'s compression of the tensor range [offset, offset +
  // view.size()), through the rank's error feedback at the first compression site —
  // whether that is the rank's raw gradient or its post-reduce-scatter shard.
  void CompressInto(size_t rank, std::span<const float> view, size_t offset,
                    RangedPayload* p) const {
    p->offset = offset;
    p->length = view.size();
    p->lost = false;
    if (ErrorFeedback* feedback = FirstSiteFeedback(rank)) {
      feedback->CompressWithFeedback(*config_.compressor, ResidualKey(offset), view,
                                     config_.seed, &p->payload);
    } else {
      config_.compressor->Compress(view, config_.seed, &p->payload);
    }
  }

  // Sends rank `rank`'s first-site payload `p` across the channel as `wire_id`. A
  // dropped one is marked lost and folded back into the residual it was cut from.
  void Transmit(size_t rank, uint64_t wire_id, RangedPayload* p) {
    switch (config_.channel->Transmit(rank, wire_id, &p->payload)) {
      case PayloadFate::kDelivered:
        break;
      case PayloadFate::kCorrupted:
        ++tally_.payloads_corrupted;
        break;
      case PayloadFate::kDropped:
        ++tally_.payloads_dropped;
        p->lost = true;
        if (ErrorFeedback* feedback = FirstSiteFeedback(rank)) {
          feedback->AbsorbLostPayload(*config_.compressor, ResidualKey(p->offset),
                                      p->payload);
        }
        break;
    }
  }

  // --- communication routines -------------------------------------------------------

  // An op runs in up to three stages: every member prepares what it sends (compressing
  // if a Comp op is pending), in parallel; the caller passes the first-site payloads
  // through the channel, in member order; then every group delivers, in parallel.
  void Communicate(const Op& op) {
    Groups& groups = BuildGroups(op);
    size_t floats = 0;
    bool carried = false;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      for (size_t r : groups[gi]) {
        const RankState& s = states_[r];
        floats += s.length;
        carried = carried || (s.active && s.HasPayloads() && !s.pending_compress);
      }
    }
    const size_t width = Width(floats);
    // A payload-set on the wire without a preceding Decompress means the option either
    // skips the decompress-aggregate-recompress stage (same-range payloads: aggregate
    // in the compressed domain) or carries a multi-chunk compressed tensor (disjoint
    // ranges: pass through untouched).
    if (carried) {
      ForEachMember(width, groups, [&](size_t gi, size_t i) {
        RankState& s = states_[groups[gi][i]];
        if (s.active && s.HasPayloads() && !s.pending_compress) {
          DedupePayloads(&s);
        }
      });
    }
    if (SendsPayloads(op)) {
      PreparePayloads(op, groups, width);
      if (first_compression_ && config_.channel != nullptr) {
        TransmitFirstSite(op, groups);
      }
    }
    // Replicated payload sets are numbered by group, whichever group finishes first.
    const uint64_t sets = payload_sets_;
    ForEachGroup(width, groups, [&](size_t gi, size_t inner) {
      const std::vector<size_t>& group = groups[gi];
      switch (op.routine) {
        case Routine::kAllreduce:
          GroupAllreduce(group, inner);
          break;
        case Routine::kReduceScatter:
          GroupReduceScatter(group, inner);
          break;
        case Routine::kAllgather:
          if (op.compressed) {
            GroupAllgatherCompressed(group, sets + gi + 1, inner);
          } else {
            GroupAllgather(group, inner);
          }
          break;
        case Routine::kReduce:
          GroupReduce(group, PhaseLevel(op.phase), inner);
          break;
        case Routine::kBroadcast:
          GroupBroadcast(group, op.compressed, sets + gi + 1, inner);
          break;
        case Routine::kAlltoall:
          GroupAlltoall(group);
          break;
        case Routine::kGather:
          GroupGather(group, PhaseLevel(op.phase));
          break;
        case Routine::kNone:
          ESP_CHECK(false);
      }
    });
    if (op.compressed &&
        (op.routine == Routine::kAllgather || op.routine == Routine::kBroadcast)) {
      payload_sets_ += groups.size();
    }
    bool consumed_pending = false;
    for (RankState& s : states_) {
      consumed_pending = consumed_pending || s.pending_compress;
      s.pending_compress = false;
    }
    if (consumed_pending) {
      first_compression_ = false;
    }
  }

  // What every member sends, before anything is transmitted or delivered: the
  // compressions a pending Comp op asks for (into the member's own payload set) and,
  // for an alltoall, its G parts (into slot i of each receiver's inbox). Each member
  // writes only its own state and slots.
  void PreparePayloads(const Op& op, const Groups& groups, size_t width) {
    if (op.routine == Routine::kAlltoall) {
      if (ws_.inbox.size() < states_.size()) {
        ws_.inbox.resize(states_.size());
      }
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        for (size_t r : groups[gi]) {
          ws_.inbox[r].clear();
          for (size_t i = 0; i < groups[gi].size(); ++i) {
            ws_.inbox[r].push();
          }
        }
      }
    }
    ForEachMember(width, groups, [&](size_t gi, size_t i) {
      const std::vector<size_t>& group = groups[gi];
      RankState& s = states_[group[i]];
      if (op.routine == Routine::kAlltoall) {
        SplitForAlltoall(group, i);
        return;
      }
      if (op.routine == Routine::kBroadcast && i != 0) {
        return;  // only the root sends
      }
      if (s.pending_compress) {
        ESP_CHECK(!s.HasPayloads()) << option_.Describe();
        CompressInto(group[i], s.raw, s.offset, &s.payloads.push());
      } else {
        ESP_CHECK(s.HasPayloads()) << option_.Describe();
      }
    });
  }

  // Member i's part j of its range, for member j: compressed now if a Comp op is
  // pending, range-split from its carried payload otherwise.
  void SplitForAlltoall(const std::vector<size_t>& group, size_t i) {
    const RankState& s = states_[group[i]];
    ESP_CHECK_EQ(s.length, states_[group.front()].length);
    const Partition part(s.length, group.size());
    for (size_t j = 0; j < group.size(); ++j) {
      RangedPayload& p = ws_.inbox[group[j]][i];
      if (s.pending_compress) {
        ESP_CHECK(!s.HasPayloads()) << option_.Describe();
        const std::span<const float> view(s.raw);
        CompressInto(group[i], view.subspan(part.Offset(j), part.Length(j)),
                     s.offset + part.Offset(j), &p);
      } else {
        ESP_CHECK_EQ(s.payloads.size(), 1u);
        const RangedPayload& carried = s.payloads.front();
        p.offset = s.offset + part.Offset(j);
        p.length = part.Length(j);
        p.lost = carried.lost;
        SplitSparsePayload(carried.payload, part.Offset(j), part.Length(j), &p.payload);
      }
    }
  }

  // Passes every first-site payload that leaves its rank through the channel, on the
  // caller, group by group and member by member. A channel's verdict depends only on
  // (iteration, rank, wire id), so no fate depends on the fan-out. A part a rank keeps
  // for itself (alltoall part i, the gather root's own) stays local; an alltoall part j
  // crosses as tensor * kIdStride + j.
  void TransmitFirstSite(const Op& op, const Groups& groups) {
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const std::vector<size_t>& group = groups[gi];
      for (size_t i = 0; i < group.size(); ++i) {
        RankState& s = states_[group[i]];
        if (!s.pending_compress) {
          continue;
        }
        switch (op.routine) {
          case Routine::kAlltoall:
            for (size_t j = 0; j < group.size(); ++j) {
              if (j != i) {
                Transmit(group[i], tensor_id_ * kIdStride + j, &ws_.inbox[group[j]][i]);
              }
            }
            break;
          case Routine::kBroadcast:
            if (i == 0) {
              Transmit(group[i], tensor_id_, &s.payloads.front());
            }
            break;
          case Routine::kGather:
            if (i != 0) {
              Transmit(group[i], tensor_id_, &s.payloads.front());
            }
            break;
          default:
            Transmit(group[i], tensor_id_, &s.payloads.front());
            break;
        }
      }
    }
  }

  // The group sum, in place in the first member's buffer: raw_g0[i] = 0 + raw_g0[i] +
  // raw_g1[i] + ... over the group in group order, split by kSumBlock block across
  // `width` threads.
  void SumGroup(const std::vector<size_t>& group, size_t width) {
    const size_t n = states_[group.front()].length;
    for (size_t r : group) {
      ESP_CHECK_EQ(states_[r].length, n);
    }
    float* sum = states_[group.front()].raw.data();
    ParallelFor(width, (n + kSumBlock - 1) / kSumBlock, [&](size_t block, size_t) {
      const size_t b = block * kSumBlock;
      const size_t len = std::min(kSumBlock, n - b);
      float* dst = sum + b;
      for (size_t i = 0; i < len; ++i) {
        dst[i] = 0.0f + dst[i];
      }
      for (size_t j = 1; j < group.size(); ++j) {
        const float* src = states_[group[j]].raw.data() + b;
        for (size_t i = 0; i < len; ++i) {
          dst[i] += src[i];
        }
      }
    });
  }

  void GroupAllreduce(const std::vector<size_t>& group, size_t width) {
    const RankState& first = states_[group.front()];
    ESP_CHECK(!first.pending_compress && !first.HasPayloads());
    SumGroup(group, width);
    ParallelFor(width, group.size() - 1, [&](size_t k, size_t) {
      states_[group[k + 1]].raw.assign(first.raw.begin(), first.raw.end());
    });
  }

  void GroupReduceScatter(const std::vector<size_t>& group, size_t width) {
    RankState& first = states_[group.front()];
    ESP_CHECK(!first.pending_compress && !first.HasPayloads());
    SumGroup(group, width);
    // Shard j is range j of the group sum. Every other member copies its shard out of
    // the first member's buffer before that buffer is cut down to shard 0.
    const Partition part(first.length, group.size());
    ParallelFor(width, group.size() - 1, [&](size_t k, size_t) {
      RankState& s = states_[group[k + 1]];
      const size_t offset = part.Offset(k + 1);
      const size_t length = part.Length(k + 1);
      s.offset += offset;
      s.length = length;
      s.raw.assign(first.raw.begin() + offset, first.raw.begin() + offset + length);
    });
    first.length = part.Length(0);
    first.raw.resize(first.length);
  }

  void GroupReduce(const std::vector<size_t>& group, int level, size_t width) {
    GroupAllreduce(group, width);
    for (size_t j = 1; j < group.size(); ++j) {
      states_[group[j]].active = false;
      states_[group[j]].dormant_level = level;
    }
  }

  // Uncompressed: every member ends with the members' (disjoint) ranges concatenated.
  // They are merged in the first member's buffer: its own range moves to its place in
  // [lo, hi), the rest starts at zero and the others' ranges are copied in, in member
  // order; then the others copy the merge.
  void GroupAllgather(const std::vector<size_t>& group, size_t width) {
    size_t lo = SIZE_MAX, hi = 0;
    for (size_t r : group) {
      lo = std::min(lo, states_[r].offset);
      hi = std::max(hi, states_[r].offset + states_[r].length);
    }
    RankState& first = states_[group.front()];
    const size_t own = first.offset - lo;
    first.raw.resize(hi - lo);
    if (own > 0) {
      std::copy_backward(first.raw.begin(), first.raw.begin() + first.length,
                         first.raw.begin() + own + first.length);
      std::fill(first.raw.begin(), first.raw.begin() + own, 0.0f);
    }
    for (size_t j = 1; j < group.size(); ++j) {
      const RankState& s = states_[group[j]];
      std::copy(s.raw.begin(), s.raw.end(), first.raw.begin() + (s.offset - lo));
    }
    first.offset = lo;
    first.length = hi - lo;
    ParallelFor(width, group.size() - 1, [&](size_t k, size_t) {
      RankState& s = states_[group[k + 1]];
      s.offset = lo;
      s.length = hi - lo;
      s.raw.assign(first.raw.begin(), first.raw.end());
    });
  }

  // Every member ends with the union of the group's payload sets, in member order,
  // tagged with the replicated set id `set`: the others' sets are appended to the
  // first member's, and the others copy it.
  void GroupAllgatherCompressed(const std::vector<size_t>& group, uint64_t set,
                                size_t width) {
    RankState& first = states_[group.front()];
    for (size_t j = 1; j < group.size(); ++j) {
      first.payloads.AppendFrom(states_[group[j]].payloads);
    }
    first.payload_set = set;
    first.raw.clear();
    ParallelFor(width, group.size() - 1, [&](size_t k, size_t) {
      RankState& s = states_[group[k + 1]];
      s.payloads.CopyFrom(first.payloads);
      s.payload_set = set;
      s.raw.clear();
    });
  }

  // The root (the group's front) keeps its value and revives every other member with
  // a copy; a compressed set is tagged with the replicated set id `set`.
  void GroupBroadcast(const std::vector<size_t>& group, bool compressed, uint64_t set,
                      size_t width) {
    RankState& root = states_[group.front()];
    root.active = true;
    root.dormant_level = -1;
    if (compressed) {
      size_t lo = SIZE_MAX, hi = 0;
      for (const RangedPayload& p : root.payloads) {
        lo = std::min(lo, p.offset);
        hi = std::max(hi, p.offset + p.length);
      }
      root.offset = lo;
      root.length = hi - lo;
      root.raw.clear();
      root.payload_set = set;
    } else {
      ESP_CHECK(!root.HasPayloads());
      root.payload_set = 0;
    }
    ParallelFor(width, group.size() - 1, [&](size_t k, size_t) {
      RankState& s = states_[group[k + 1]];
      s.active = true;
      s.dormant_level = -1;
      s.offset = root.offset;
      s.length = root.length;
      if (compressed) {
        s.raw.clear();
        s.payloads.CopyFrom(root.payloads);
      } else {
        s.raw.assign(root.raw.begin(), root.raw.end());
        s.payloads.clear();
      }
      s.payload_set = root.payload_set;
    });
  }

  // Member j takes the G parts the members cut for it: a compressed shuffle.
  void GroupAlltoall(const std::vector<size_t>& group) {
    const Partition part(states_[group.front()].length, group.size());
    for (size_t j = 0; j < group.size(); ++j) {
      RankState& s = states_[group[j]];
      s.offset += part.Offset(j);
      s.length = part.Length(j);
      s.raw.clear();
      s.payloads.Swap(ws_.inbox[group[j]]);  // constant-time; capacities circulate
      s.payload_set = 0;
    }
  }

  // The root collects every member's payloads after its own, in member order; the
  // other members go dormant at this level.
  void GroupGather(const std::vector<size_t>& group, int level) {
    RankState& root = states_[group.front()];
    for (size_t j = 1; j < group.size(); ++j) {
      RankState& s = states_[group[j]];
      root.payloads.AppendFrom(s.payloads);
      s.active = false;
      s.dormant_level = level;
    }
    root.raw.clear();
    root.payload_set = 0;
  }

  // --- decompression ------------------------------------------------------------------

  // Deduplicates a payload set by range: payloads covering the same range are partial
  // sums and get aggregated in the compressed domain (the "skip" shortcut; requires
  // compressor support, e.g. shared-seed Random-k). Disjoint ranges are chunks of one
  // logical compressed tensor and pass through untouched. An empty payload (a part of
  // a tensor with fewer elements than its partition has parts) shares its offset with
  // the next part but not its range, so it only ever matches other empty payloads, and
  // folding those needs no compressed-domain aggregation: they sum to nothing.
  // In-place compaction: each duplicate is folded (in encounter order) into the first
  // payload of its range, and only when something was folded does the surviving set
  // get re-sorted by offset — a dedupe-free set keeps its original order, bit for bit.
  void DedupePayloads(RankState* s) const {
    mem::StableVec<RangedPayload>& ps = s->payloads;
    size_t unique = 0;
    bool aggregated = false;
    for (size_t i = 0; i < ps.size(); ++i) {
      const bool empty = ps[i].length == 0;
      size_t found = unique;
      for (size_t k = 0; k < unique; ++k) {
        if (ps[k].offset == ps[i].offset && (ps[k].length == 0) == empty) {
          found = k;
          break;
        }
      }
      if (found < unique) {
        ESP_CHECK(empty || config_.compressor->SupportsCompressedAggregation())
            << "option skips decompress-aggregate but " << config_.compressor->name()
            << " cannot aggregate compressed payloads: " << option_.Describe();
        ESP_CHECK_EQ(ps[found].length, ps[i].length);
        if (ps[found].lost) {
          std::swap(ps[found], ps[i]);  // the range's first live payload seeds the sum
        } else if (!ps[i].lost && !empty) {
          config_.compressor->AggregateCompressed(ps[i].payload, &ps[found].payload);
        }
        aggregated = true;
      } else {
        if (i != unique) {
          std::swap(ps[unique], ps[i]);  // compact; the displaced dup is retired
        }
        ++unique;
      }
    }
    if (aggregated || unique != ps.size()) {
      ps.truncate(unique);
      std::sort(ps.begin(), ps.end(),
                [](const RangedPayload& a, const RangedPayload& b) {
                  return a.offset < b.offset;
                });
    }
  }

  // Decodes `s`'s payloads into its raw range [s.offset, s.offset + s.length).
  void Decode(const Op& op, RankState& s) const {
    if (op.fan_in == 1 && s.payloads.size() > 1) {
      DedupePayloads(&s);
    }
    // Decompress straight into the state's raw vector (payloads hold the data; raw is
    // dead here, so zero-assign reuses its capacity).
    s.raw.assign(s.length, 0.0f);
    for (const RangedPayload& p : s.payloads) {
      if (!p.lost) {
        auto view = std::span<float>(s.raw).subspan(p.offset - s.offset, p.length);
        config_.compressor->DecompressAdd(p.payload, view);
      }
    }
    s.payloads.clear();
  }

  // Every active rank decodes its payloads, except that the holders of one replicated
  // set (compressed allgather/broadcast) copy the decode of its representative, the
  // lowest active rank holding it: same bytes, same floats. A serial pre-pass sets
  // each rank's decoded range and picks the representatives; the decoders run in
  // parallel, then the copies do.
  void Decompress(const Op& op) {
    std::vector<size_t>& decoders = ws_.decoders;
    std::vector<std::pair<size_t, size_t>>& replicas = ws_.replicas;
    std::vector<size_t>& representatives = ws_.representatives;
    decoders.clear();
    replicas.clear();
    representatives.assign(payload_sets_ + 1, SIZE_MAX);  // indexed by set id
    size_t floats = 0;
    for (size_t r = 0; r < states_.size(); ++r) {
      RankState& s = states_[r];
      if (!s.active) {
        continue;
      }
      ESP_CHECK(s.HasPayloads()) << "decompress without payloads: " << option_.Describe();
      size_t lo = SIZE_MAX, hi = 0;
      for (const RangedPayload& p : s.payloads) {
        lo = std::min(lo, p.offset);
        hi = std::max(hi, p.offset + p.length);
      }
      s.offset = lo;
      s.length = hi - lo;
      floats += s.length;
      if (s.payload_set != 0) {
        size_t& representative = representatives[s.payload_set];
        if (representative != SIZE_MAX) {
          replicas.emplace_back(r, representative);
          continue;
        }
        representative = r;
      }
      decoders.push_back(r);
    }
    const size_t width = Width(floats);
    ParallelFor(width, decoders.size(),
                [&](size_t k, size_t) { Decode(op, states_[decoders[k]]); });
    ParallelFor(width, replicas.size(), [&](size_t k, size_t) {
      RankState& s = states_[replicas[k].first];
      const RankState& decoded = states_[replicas[k].second];
      s.raw.assign(decoded.raw.begin(), decoded.raw.end());
      s.payloads.clear();
    });
    for (RankState& s : states_) {
      s.payload_set = 0;
    }
  }

  const CompressionOption& option_;
  const ExecutorConfig& config_;
  const uint64_t tensor_id_;
  RankBuffers& buffers_;
  const size_t elements_;
  ExecutorWorkspace::Impl& ws_;
  std::vector<RankState>& states_;
  bool first_compression_ = true;  // EF applies until the first compression completes
  uint64_t payload_sets_ = 0;      // ids handed out to replicated payload sets
  ChannelTally tally_;
};

}  // namespace

ChannelTally ExecuteOption(const CompressionOption& option, const ExecutorConfig& config,
                           uint64_t tensor_id, RankBuffers& buffers,
                           ExecutorWorkspace* workspace) {
  ExecutorWorkspace& ws =
      workspace != nullptr ? *workspace : ExecutorWorkspace::ThreadDefault();
  return OptionExecutor(option, config, tensor_id, buffers, ws.impl()).Run();
}

void ExecuteStrategy(const Strategy& strategy, const ExecutorConfig& config,
                     std::vector<RankBuffers>& gradients, ExecutorWorkspace* workspace) {
  ESP_CHECK_EQ(strategy.options.size(), gradients.size())
      << "strategy has one option per tensor; gradient tensor count must match";
  ExecutorWorkspace& ws =
      workspace != nullptr ? *workspace : ExecutorWorkspace::ThreadDefault();
  for (size_t t = 0; t < gradients.size(); ++t) {
    OptionExecutor(strategy.options[t], config, t, gradients[t], ws.impl()).Run();
  }
}

}  // namespace espresso
