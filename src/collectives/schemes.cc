#include "src/collectives/schemes.h"

#include <algorithm>
#include <span>

#include "src/util/logging.h"

namespace espresso {

namespace {

// Compresses rank r's full buffer, routing through its ErrorFeedback when present.
void CompressRank(const Compressor& compressor, const SchemeContext& ctx, size_t rank,
                  std::span<const float> input, CompressedTensor* out) {
  if (ctx.feedback != nullptr) {
    ESP_CHECK_LT(rank, ctx.feedback->size());
    (*ctx.feedback)[rank].CompressWithFeedback(compressor, ctx.tensor_id, input, ctx.seed, out);
  } else {
    compressor.Compress(input, ctx.seed, out);
  }
}

// Routes rank r's uplink payload through the context's channel (if any). Returns false
// when the payload is dropped: the caller must exclude it from aggregation. A drop is
// total — no rank (including the sender) aggregates it, which keeps the synchronous
// replicas bit-identical; with EF on, the dropped update is folded back into the
// sender's residual and re-emitted on the next step. Corrupted payloads are delivered
// as-is (a channel that wants reliability adds checksums + retries internally).
bool TransmitRank(const Compressor& compressor, const SchemeContext& ctx, size_t rank,
                  uint64_t tensor_id, CompressedTensor* payload, SchemeResult* result) {
  if (ctx.channel == nullptr) {
    return true;
  }
  switch (ctx.channel->Transmit(rank, tensor_id, payload)) {
    case PayloadFate::kDelivered:
      return true;
    case PayloadFate::kCorrupted:
      ++result->payloads_corrupted;
      return true;
    case PayloadFate::kDropped:
      ++result->payloads_dropped;
      if (ctx.feedback != nullptr) {
        (*ctx.feedback)[rank].AbsorbLostPayload(compressor, tensor_id, *payload);
      }
      return false;
  }
  return true;
}

}  // namespace

SchemeResult CompressedIndivisibleAllgather(const Compressor& compressor,
                                            const SchemeContext& ctx, RankBuffers& buffers) {
  const size_t n = CheckUniformSize(buffers);
  const size_t p = buffers.size();
  SchemeResult result;

  // Each rank compresses its full tensor; the allgathered payload set keeps only the
  // payloads the channel delivered. Payload tensors and delivery flags persist in the
  // workspace (Compress Clear()s a tensor, keeping capacity).
  mem::CollectiveWorkspace& ws = mem::Resolve(ctx.workspace);
  std::vector<CompressedTensor>& payloads = ws.indiv_payloads;
  // Grow-only: shrinking would destroy warm tensors (and their capacities) when calls
  // with different rank counts alternate on one workspace. Slots past p sit unused.
  if (payloads.size() < p) {
    payloads.resize(p);
  }
  std::vector<uint8_t>& delivered = ws.delivered;
  delivered.assign(p, uint8_t{1});
  for (size_t r = 0; r < p; ++r) {
    CompressRank(compressor, ctx, r, buffers[r], &payloads[r]);
    delivered[r] = TransmitRank(compressor, ctx, r, ctx.tensor_id, &payloads[r], &result)
                       ? uint8_t{1}
                       : uint8_t{0};
  }
  result.compress_calls = p;

  // Allgather of payloads: every rank receives all p compressed tensors.
  size_t bytes = 0;
  for (size_t r = 0; r < p; ++r) {
    bytes += payloads[r].ByteSize();
  }
  result.traffic.bytes_sent_per_rank = bytes * (p - 1) / p;  // ring allgather average
  result.traffic.communication_steps = p - 1;

  // Decompress + aggregate on every rank.
  for (size_t r = 0; r < p; ++r) {
    std::fill(buffers[r].begin(), buffers[r].end(), 0.0f);
    for (size_t s = 0; s < p; ++s) {
      if (delivered[s] != 0) {
        compressor.DecompressAdd(payloads[s], buffers[r]);
        ++result.decompress_calls;
      }
    }
  }
  (void)n;
  return result;
}

SchemeResult CompressedDivisibleAlltoall(const Compressor& compressor,
                                         const SchemeContext& ctx, RankBuffers& buffers) {
  const size_t n = CheckUniformSize(buffers);
  const size_t p = buffers.size();
  SchemeResult result;
  const size_t parts = p;  // one index-range part per rank: rank j aggregates part j
  const Partition part(n, parts);

  // Step 0: every rank compresses each index-range part of its tensor.
  // payloads[r][j] = rank r's compressed part j. Parts whose aggregator is another rank
  // cross the wire and may be dropped by the channel; a rank's own part stays local.
  // The payload matrix and the delivery flags persist in the workspace (row r of the
  // flags starts at delivered[r * parts]).
  mem::CollectiveWorkspace& ws = mem::Resolve(ctx.workspace);
  // Grow-only (see the indivisible scheme): calls with different rank counts share
  // this matrix, and shrinking a row would destroy its warm tensors. Rows and slots
  // past the live [0, p) x [0, parts) range sit unused.
  std::vector<std::vector<CompressedTensor>>& payloads = ws.div_payloads;
  if (payloads.size() < p) {
    payloads.resize(p);
  }
  for (size_t r = 0; r < p; ++r) {
    if (payloads[r].size() < parts) {
      payloads[r].resize(parts);
    }
  }
  std::vector<uint8_t>& delivered = ws.delivered;
  delivered.assign(p * parts, uint8_t{1});
  for (size_t r = 0; r < p; ++r) {
    for (size_t j = 0; j < parts; ++j) {
      const std::span<const float> full(buffers[r]);
      // Error feedback applies to the full tensor once, not per part; run it before
      // partitioning by compressing part views of the corrected tensor. To keep residual
      // bookkeeping simple and exact we apply EF per (tensor, part) with distinct ids.
      const auto view = full.subspan(part.Offset(j), part.Length(j));
      SchemeContext part_ctx = ctx;
      part_ctx.tensor_id = ctx.tensor_id * 1315423911ULL + j;
      CompressRank(compressor, part_ctx, r, view, &payloads[r][j]);
      if (j != r) {
        delivered[r * parts + j] =
            TransmitRank(compressor, part_ctx, r, part_ctx.tensor_id, &payloads[r][j],
                         &result)
                ? uint8_t{1}
                : uint8_t{0};
      }
    }
  }
  result.compress_calls = p * parts;

  // First communication op: shuffle. Rank j receives part j from every other rank.
  size_t first_op_bytes_per_rank = 0;
  for (size_t r = 0; r < p; ++r) {
    size_t sent = 0;
    for (size_t j = 0; j < parts; ++j) {
      if (j != r) {
        sent += payloads[r][j].ByteSize();
      }
    }
    first_op_bytes_per_rank = std::max(first_op_bytes_per_rank, sent);
  }
  result.traffic.bytes_sent_per_rank += first_op_bytes_per_rank;
  result.traffic.communication_steps += 1;

  // Middle stage: each aggregator decompresses its received parts, aggregates, and
  // re-compresses — unless the compressor supports compressed-domain aggregation.
  // Aggregation tensors and the per-part float scratch persist in the workspace.
  std::vector<CompressedTensor>& aggregated = ws.div_aggregated;
  std::vector<float>& scratch = ws.part_scratch;
  if (aggregated.size() < parts) {
    aggregated.resize(parts);
  }
  if (compressor.SupportsCompressedAggregation()) {
    for (size_t j = 0; j < parts; ++j) {
      bool seeded = false;
      for (size_t r = 0; r < p; ++r) {
        if (delivered[r * parts + j] == 0) {
          continue;
        }
        if (!seeded) {
          aggregated[j] = payloads[r][j];
          seeded = true;
        } else {
          compressor.AggregateCompressed(payloads[r][j], &aggregated[j]);
        }
      }
      // Every payload of part j dropped: aggregate the part as all-zeros.
      if (!seeded) {
        scratch.assign(part.Length(j), 0.0f);
        compressor.Compress(scratch, ctx.seed, &aggregated[j]);
      }
    }
  } else {
    for (size_t j = 0; j < parts; ++j) {
      scratch.assign(part.Length(j), 0.0f);
      for (size_t r = 0; r < p; ++r) {
        if (delivered[r * parts + j] != 0) {
          compressor.DecompressAdd(payloads[r][j], scratch);
          ++result.decompress_calls;
        }
      }
      compressor.Compress(scratch, ctx.seed, &aggregated[j]);
      ++result.compress_calls;
    }
  }

  // Second communication op: allgather of the aggregated payloads.
  size_t aggregated_bytes = 0;
  for (size_t j = 0; j < parts; ++j) {
    aggregated_bytes += aggregated[j].ByteSize();
  }
  result.traffic.bytes_sent_per_rank += aggregated_bytes * (p - 1) / p;
  result.traffic.communication_steps += 1;

  // Final decompression on every rank.
  for (size_t r = 0; r < p; ++r) {
    std::fill(buffers[r].begin(), buffers[r].end(), 0.0f);
    for (size_t j = 0; j < parts; ++j) {
      auto range = std::span<float>(buffers[r]).subspan(part.Offset(j), part.Length(j));
      compressor.DecompressAdd(aggregated[j], range);
    }
    result.decompress_calls += parts;
  }
  return result;
}

}  // namespace espresso
