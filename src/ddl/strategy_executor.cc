#include "src/ddl/strategy_executor.h"

#include <algorithm>
#include <bit>

#include "src/mem/stable_vec.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

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

// The workspace body lives here so it can hold the interpreter-internal types.
struct ExecutorWorkspace::Impl {
  std::vector<RankState> states;
  mem::StableVec<std::vector<size_t>> groups;        // Groups() output
  mem::StableVec<RangedPayload> gather_scratch;      // allgather/gather/broadcast staging
  std::vector<mem::StableVec<RangedPayload>> inbox;  // alltoall per-member staging
  std::vector<float> scratch;  // group sum, allgather merge, broadcast staging
};

ExecutorWorkspace::ExecutorWorkspace() : impl_(std::make_unique<Impl>()) {}
ExecutorWorkspace::~ExecutorWorkspace() = default;

ExecutorWorkspace& ExecutorWorkspace::ThreadDefault() {
  thread_local ExecutorWorkspace workspace;
  return workspace;
}

namespace {

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
  // The workspace's float scratch, emptied and able to hold `n` floats without
  // reallocating. The group sum, the uncompressed allgather merge and the broadcast
  // staging each hold it for one group and are never live at the same time.
  std::vector<float>& Scratch(size_t n) {
    std::vector<float>& scratch = ws_.scratch;
    scratch.clear();
    if (scratch.capacity() < n) {
      // Growth rounds the capacity up to a power of two, which keeps the block's size
      // and heap placement those of a size-bucketed allocator. SumGroup streams it
      // against every rank's buffer, and an exact-size block once measured about 5%
      // slower on exec-efsignsgd-pcie (docs/MEMORY.md §1).
      scratch.reserve(std::bit_ceil(n));
    }
    return scratch;
  }

  // Rank groups participating in a communication op of the given phase: machine groups
  // for intra phases; active ranks grouped by their current range for inter/flat (the
  // cross-machine column groups of Figure 1 fall out of the shared shard offsets).
  // The group lists live in the workspace; valid until the next BuildGroups call.
  mem::StableVec<std::vector<size_t>>& BuildGroups(const Op& op) {
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
    mem::StableVec<std::vector<size_t>>& groups = ws_.groups;
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

  // Fills `p` with rank `rank`'s compression of the tensor range [offset, offset +
  // view.size()). Error feedback applies at the pipeline's FIRST compression site —
  // whether that is the rank's raw gradient or its post-reduce-scatter shard — with the
  // residual keyed by (tensor, offset) so each rank's compression site keeps its own
  // memory; re-compressions at later stages (divisible middle stages, second steps) are
  // transient and carry no residual. A first-site payload that leaves its rank (`sent`)
  // crosses the channel as (rank, wire_id); a dropped one is marked lost and folded back
  // into the residual it was cut from.
  void CompressInto(size_t rank, std::span<const float> view, size_t offset,
                    uint64_t wire_id, bool sent, RangedPayload* p) {
    p->offset = offset;
    p->length = view.size();
    p->lost = false;
    const uint64_t key = tensor_id_ * kIdStride + offset;
    ErrorFeedback* feedback = first_compression_ && config_.feedback != nullptr
                                  ? &(*config_.feedback)[rank]
                                  : nullptr;
    if (feedback != nullptr) {
      feedback->CompressWithFeedback(*config_.compressor, key, view, config_.seed,
                                     &p->payload);
    } else {
      config_.compressor->Compress(view, config_.seed, &p->payload);
    }
    if (!first_compression_ || !sent || config_.channel == nullptr) {
      return;
    }
    switch (config_.channel->Transmit(rank, wire_id, &p->payload)) {
      case PayloadFate::kDelivered:
        break;
      case PayloadFate::kCorrupted:
        ++tally_.payloads_corrupted;
        break;
      case PayloadFate::kDropped:
        ++tally_.payloads_dropped;
        p->lost = true;
        if (feedback != nullptr) {
          feedback->AbsorbLostPayload(*config_.compressor, key, p->payload);
        }
        break;
    }
  }

  // --- communication routines -------------------------------------------------------

  void Communicate(const Op& op) {
    // A payload-set on the wire without a preceding Decompress means the option either
    // skips the decompress-aggregate-recompress stage (same-range payloads: aggregate
    // in the compressed domain) or carries a multi-chunk compressed tensor (disjoint
    // ranges: pass through untouched).
    for (RankState& s : states_) {
      if (s.active && s.HasPayloads() && !s.pending_compress) {
        DedupePayloads(&s);
      }
    }
    mem::StableVec<std::vector<size_t>>& groups = BuildGroups(op);
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const std::vector<size_t>& group = groups[gi];
      switch (op.routine) {
        case Routine::kAllreduce:
          GroupAllreduce(group);
          break;
        case Routine::kReduceScatter:
          GroupReduceScatter(group);
          break;
        case Routine::kAllgather:
          GroupAllgather(group, op.compressed);
          break;
        case Routine::kReduce:
          GroupReduce(group, PhaseLevel(op.phase));
          break;
        case Routine::kBroadcast:
          GroupBroadcast(group, op.compressed);
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

  // sum[i] = 0 + raw_g0[i] + raw_g1[i] + ... over the group in group order. Blocked
  // so each block of `sum` stays in cache while every member's slice streams past.
  void SumGroup(const std::vector<size_t>& group, std::span<float> sum) const {
    constexpr size_t kBlock = 4096;
    for (size_t r : group) {
      ESP_CHECK_EQ(states_[r].length, sum.size());
    }
    for (size_t b = 0; b < sum.size(); b += kBlock) {
      const size_t n = std::min(kBlock, sum.size() - b);
      float* dst = sum.data() + b;
      for (size_t r : group) {
        const float* src = states_[r].raw.data() + b;
        for (size_t i = 0; i < n; ++i) {
          dst[i] += src[i];
        }
      }
    }
  }

  void GroupAllreduce(const std::vector<size_t>& group) {
    RankState& first = states_[group.front()];
    ESP_CHECK(!first.pending_compress && !first.HasPayloads());
    std::vector<float>& sum = Scratch(first.length);
    sum.assign(first.length, 0.0f);
    SumGroup(group, sum);
    for (size_t r : group) {
      states_[r].raw.assign(sum.begin(), sum.end());
    }
  }

  void GroupReduceScatter(const std::vector<size_t>& group) {
    const RankState& first = states_[group.front()];
    ESP_CHECK(!first.pending_compress && !first.HasPayloads());
    const Partition part(first.length, group.size());
    // Shard j is range j of the group sum; the whole sum is staged before any state
    // is overwritten (rank j's raw feeds every shard).
    std::vector<float>& sum = Scratch(first.length);
    sum.assign(first.length, 0.0f);
    SumGroup(group, sum);
    for (size_t j = 0; j < group.size(); ++j) {
      RankState& s = states_[group[j]];
      const size_t offset = part.Offset(j);
      const size_t length = part.Length(j);
      s.offset += offset;
      s.length = length;
      s.raw.assign(sum.begin() + offset, sum.begin() + offset + length);
    }
  }

  void GroupReduce(const std::vector<size_t>& group, int level) {
    GroupAllreduce(group);
    for (size_t j = 1; j < group.size(); ++j) {
      states_[group[j]].active = false;
      states_[group[j]].dormant_level = level;
    }
  }

  void GroupAllgather(const std::vector<size_t>& group, bool compressed) {
    if (compressed) {
      // Every member contributes its payloads (compressing its raw range now if a Comp
      // op is pending); everyone ends with the union of the group's payload sets.
      mem::StableVec<RangedPayload>& gathered = ws_.gather_scratch;
      gathered.clear();
      for (size_t r : group) {
        RankState& s = states_[r];
        if (s.pending_compress) {
          ESP_CHECK(!s.HasPayloads());
          CompressInto(r, s.raw, s.offset, tensor_id_, /*sent=*/true, &gathered.push());
        } else {
          ESP_CHECK(s.HasPayloads());
          gathered.AppendFrom(s.payloads);
        }
      }
      const uint64_t set = ++payload_sets_;
      for (size_t r : group) {
        states_[r].payloads.CopyFrom(gathered);
        states_[r].payload_set = set;
        states_[r].raw.clear();
      }
      return;
    }
    // Uncompressed: concatenate the members' (disjoint) ranges on every member.
    size_t lo = SIZE_MAX, hi = 0;
    for (size_t r : group) {
      lo = std::min(lo, states_[r].offset);
      hi = std::max(hi, states_[r].offset + states_[r].length);
    }
    std::vector<float>& merged = Scratch(hi - lo);
    merged.assign(hi - lo, 0.0f);
    for (size_t r : group) {
      const RankState& s = states_[r];
      std::copy(s.raw.begin(), s.raw.end(), merged.begin() + (s.offset - lo));
    }
    for (size_t r : group) {
      states_[r].offset = lo;
      states_[r].length = hi - lo;
      states_[r].raw.assign(merged.begin(), merged.end());
    }
  }

  void GroupBroadcast(const std::vector<size_t>& group, bool compressed) {
    RankState& root = states_[group.front()];
    if (compressed) {
      mem::StableVec<RangedPayload>& payloads = ws_.gather_scratch;
      payloads.clear();
      if (root.pending_compress) {
        ESP_CHECK(!root.HasPayloads());
        CompressInto(group.front(), root.raw, root.offset, tensor_id_, /*sent=*/true,
                     &payloads.push());
      } else {
        ESP_CHECK(root.HasPayloads());
        payloads.CopyFrom(root.payloads);
      }
      size_t lo = SIZE_MAX, hi = 0;
      for (size_t i = 0; i < payloads.size(); ++i) {
        const RangedPayload& p = payloads[i];
        lo = std::min(lo, p.offset);
        hi = std::max(hi, p.offset + p.length);
      }
      const uint64_t set = ++payload_sets_;
      for (size_t r : group) {
        RankState& s = states_[r];
        s.active = true;
        s.dormant_level = -1;
        s.offset = lo;
        s.length = hi - lo;
        s.raw.clear();
        s.payloads.CopyFrom(payloads);
        s.payload_set = set;
      }
      return;
    }
    ESP_CHECK(!root.HasPayloads());
    // Stage the root's value: the loop overwrites the root's own raw vector.
    std::vector<float>& value = Scratch(root.raw.size());
    value.assign(root.raw.begin(), root.raw.end());
    const size_t offset = root.offset;
    const size_t length = root.length;
    for (size_t r : group) {
      RankState& s = states_[r];
      s.active = true;
      s.dormant_level = -1;
      s.offset = offset;
      s.length = length;
      s.raw.assign(value.begin(), value.end());
      s.payloads.clear();
      s.payload_set = 0;
    }
  }

  void GroupAlltoall(const std::vector<size_t>& group) {
    // Compressed shuffle: each member splits its range into G parts (compressing now if
    // a Comp op is pending, range-splitting its carried payload otherwise) and sends
    // part j to member j. Member j ends with G payloads covering part j.
    const size_t G = group.size();
    const RankState& first = states_[group.front()];
    const Partition part(first.length, G);
    std::vector<mem::StableVec<RangedPayload>>& inbox = ws_.inbox;
    if (inbox.size() < G) {
      inbox.resize(G);
    }
    for (size_t j = 0; j < G; ++j) {
      inbox[j].clear();
    }
    for (size_t i = 0; i < G; ++i) {
      RankState& s = states_[group[i]];
      ESP_CHECK_EQ(s.length, first.length);
      for (size_t j = 0; j < G; ++j) {
        RangedPayload& p = inbox[j].push();
        if (s.pending_compress) {
          ESP_CHECK(!s.HasPayloads()) << option_.Describe();
          const std::span<const float> view(s.raw);
          // Part i is member i's own: it stays local.
          CompressInto(group[i], view.subspan(part.Offset(j), part.Length(j)),
                       s.offset + part.Offset(j), tensor_id_ * kIdStride + j,
                       /*sent=*/j != i, &p);
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
    for (size_t j = 0; j < G; ++j) {
      RankState& s = states_[group[j]];
      s.offset += part.Offset(j);
      s.length = part.Length(j);
      s.raw.clear();
      s.payloads.Swap(inbox[j]);  // constant-time; capacities circulate, never drop
      s.payload_set = 0;
    }
  }

  void GroupGather(const std::vector<size_t>& group, int level) {
    mem::StableVec<RangedPayload>& gathered = ws_.gather_scratch;
    gathered.clear();
    for (size_t r : group) {
      RankState& s = states_[r];
      if (s.pending_compress) {
        ESP_CHECK(!s.HasPayloads()) << option_.Describe();
        // The root's own payload stays local.
        CompressInto(r, s.raw, s.offset, tensor_id_, /*sent=*/r != group.front(),
                     &gathered.push());
      } else {
        ESP_CHECK(s.HasPayloads()) << option_.Describe();
        gathered.AppendFrom(s.payloads);
      }
    }
    RankState& root = states_[group.front()];
    root.raw.clear();
    root.payloads.Swap(gathered);
    root.payload_set = 0;
    for (size_t j = 1; j < group.size(); ++j) {
      states_[group[j]].active = false;
      states_[group[j]].dormant_level = level;
    }
  }

  // --- decompression ------------------------------------------------------------------

  // Deduplicates a payload set by range: payloads covering the same range are partial
  // sums and get aggregated in the compressed domain (the "skip" shortcut; requires
  // compressor support, e.g. shared-seed Random-k). Disjoint ranges are chunks of one
  // logical compressed tensor and pass through untouched. In-place compaction: each
  // duplicate is folded (in encounter order) into the first payload of its range, and
  // only when something was folded does the surviving set get re-sorted by offset —
  // a dedupe-free set keeps its original order, bit for bit.
  void DedupePayloads(RankState* s) {
    mem::StableVec<RangedPayload>& ps = s->payloads;
    size_t unique = 0;
    bool aggregated = false;
    for (size_t i = 0; i < ps.size(); ++i) {
      size_t found = unique;
      for (size_t k = 0; k < unique; ++k) {
        if (ps[k].offset == ps[i].offset) {
          found = k;
          break;
        }
      }
      if (found < unique) {
        ESP_CHECK(config_.compressor->SupportsCompressedAggregation())
            << "option skips decompress-aggregate but " << config_.compressor->name()
            << " cannot aggregate compressed payloads: " << option_.Describe();
        ESP_CHECK_EQ(ps[found].length, ps[i].length);
        if (ps[found].lost) {
          std::swap(ps[found], ps[i]);  // the range's first live payload seeds the sum
        } else if (!ps[i].lost) {
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

  // A rank before `rank` that decoded the same replicated payload set in the current
  // Decompress op, or nullptr. Ranks run one after another, so its decode is exactly
  // what `rank` would compute itself.
  const RankState* DecodedReplica(size_t rank) const {
    const uint64_t set = states_[rank].payload_set;
    if (set == 0) {
      return nullptr;
    }
    for (size_t q = 0; q < rank; ++q) {
      if (states_[q].active && states_[q].payload_set == set) {
        return &states_[q];
      }
    }
    return nullptr;
  }

  void Decompress(const Op& op) {
    for (size_t r = 0; r < states_.size(); ++r) {
      RankState& s = states_[r];
      if (!s.active) {
        continue;
      }
      ESP_CHECK(s.HasPayloads()) << "decompress without payloads: " << option_.Describe();
      if (const RankState* replica = DecodedReplica(r)) {
        s.raw.assign(replica->raw.begin(), replica->raw.end());
        s.offset = replica->offset;
        s.length = replica->length;
        s.payloads.clear();
        continue;
      }
      if (op.fan_in == 1 && s.payloads.size() > 1) {
        DedupePayloads(&s);
      }
      size_t lo = SIZE_MAX, hi = 0;
      for (size_t i = 0; i < s.payloads.size(); ++i) {
        const RangedPayload& p = s.payloads[i];
        lo = std::min(lo, p.offset);
        hi = std::max(hi, p.offset + p.length);
      }
      // Decompress straight into the state's raw vector (payloads hold the data; raw
      // is dead here, so zero-assign reuses its capacity).
      s.raw.assign(hi - lo, 0.0f);
      for (size_t i = 0; i < s.payloads.size(); ++i) {
        const RangedPayload& p = s.payloads[i];
        if (!p.lost) {
          auto view = std::span<float>(s.raw).subspan(p.offset - lo, p.length);
          config_.compressor->DecompressAdd(p.payload, view);
        }
      }
      s.offset = lo;
      s.length = hi - lo;
      s.payloads.clear();
    }
    // The ids stay set until every holder has looked for a decoded replica.
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
