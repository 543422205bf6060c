// Steady-state allocation counting for the execution dataplane. This binary overrides
// the global allocating operators with counting forwarders; each test warms the path
// under test (workspaces, error-feedback residuals, thread-local scratch), then
// replays it with the counter snapshotted before and after. The zero-allocation claim
// of docs/MEMORY.md is asserted literally: the delta must be 0.
//
// These tests live in their own binary (mem_allocation_tests) because the operator
// new/delete replacement is process-global. No gtest assertion runs inside a counting
// window — gtest allocates on failure paths and some success paths.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// ---------------------------------------------------------------------------
// Global allocation hooks. Count every allocating form; frees are not counted.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#include <gtest/gtest.h>

#include <vector>

#include "src/core/baselines.h"
#include "src/core/decision_tree.h"
#include "src/core/timeline.h"
#include "src/ddl/strategy_executor.h"
#include "src/fault/chaos_channel.h"
#include "src/models/model_zoo.h"
#include "src/nn/parallel_trainer.h"
#include "src/util/rng.h"

namespace espresso {
namespace {

RankBuffers MakeGradients(size_t ranks, size_t n, uint64_t seed) {
  RankBuffers buffers(ranks, std::vector<float>(n));
  for (size_t r = 0; r < ranks; ++r) {
    Rng rng(DeriveSeed(seed, r));
    rng.FillNormal(buffers[r], 0.0, 1.0);
  }
  return buffers;
}

// Refills `buffers` from `initial` without changing any capacity.
void Refill(RankBuffers& buffers, const RankBuffers& initial) {
  for (size_t r = 0; r < buffers.size(); ++r) {
    buffers[r].assign(initial[r].begin(), initial[r].end());
  }
}

// The reliable channel's corrupt-and-retry path: once its scratch tensor has held a
// payload, each corrupted attempt copies the payload into it without allocating, and
// the checksum and backoff of the retry allocate nothing either.
TEST(AllocationCount, ReliableChannelRetryIsAllocationFree) {
  FaultSpec spec;
  spec.corrupt_probability = 0.5;
  const FaultInjector injector{FaultPlan(spec)};
  ReliableChannel channel(&injector, RetryPolicy{});
  const auto topk = CreateCompressor(CompressorConfig{.algorithm = "topk", .ratio = 0.25});
  const RankBuffers gradient = MakeGradients(1, 512, 17);
  CompressedTensor payload;
  topk->Compress(gradient[0], /*seed=*/0, &payload);
  auto transmit_step = [&](uint64_t iteration) {
    channel.BeginIteration(iteration);
    for (size_t rank = 0; rank < 8; ++rank) {
      channel.Transmit(rank, /*tensor_id=*/0, &payload);
    }
  };

  transmit_step(0);  // warm-up: the first corrupted attempt sizes the scratch tensor
  const uint64_t warm_corruptions = channel.stats().corrupted;
  ASSERT_GT(warm_corruptions, 0u);
  const std::uint64_t before = AllocationCount();
  for (uint64_t iteration = 1; iteration <= 10; ++iteration) {
    transmit_step(iteration);
  }
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_GT(channel.stats().corrupted, warm_corruptions);
  EXPECT_GT(channel.stats().retries, 0u);
}

// Satellite regression for the ErrorFeedback per-call decompress buffer: repeated
// CompressWithFeedback on a warm residual must not touch the heap.
TEST(AllocationCount, ErrorFeedbackSteadyStateIsAllocationFree) {
  const auto topk = CreateCompressor(CompressorConfig{.algorithm = "topk", .ratio = 0.25});
  ErrorFeedback feedback;
  std::vector<float> grad(512);
  Rng rng(3);
  rng.FillNormal(grad, 0.0, 1.0);
  CompressedTensor out;
  for (int i = 0; i < 3; ++i) {
    feedback.CompressWithFeedback(*topk, /*tensor_id=*/0, grad,
                                  static_cast<uint64_t>(i), &out);
    out.Clear();
  }
  const std::uint64_t before = AllocationCount();
  for (int i = 3; i < 23; ++i) {
    feedback.CompressWithFeedback(*topk, /*tensor_id=*/0, grad,
                                  static_cast<uint64_t>(i), &out);
    out.Clear();
  }
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
}

// The uncompressed flat routines the executor runs (allreduce, reduce-scatter +
// allgather, reduce + broadcast) are allocation-free once their workspace is warm.
TEST(AllocationCount, PrimitivesSteadyStateIsAllocationFree) {
  const size_t ranks = 4, n = 97;
  std::vector<CompressionOption> options;
  for (const CompressionOption& option : EnumerateOptions(TreeConfig{1, ranks, false}).options) {
    if (!option.Compressed()) {
      options.push_back(option);
    }
  }
  ASSERT_EQ(options.size(), 3u);
  const RankBuffers initial = MakeGradients(ranks, n, 5);
  RankBuffers buffers = initial;
  ExecutorWorkspace workspace;
  const ExecutorConfig config{.machines = 1, .gpus_per_machine = ranks};

  for (int i = 0; i < 2; ++i) {  // warm-up
    for (const CompressionOption& option : options) {
      Refill(buffers, initial);
      ExecuteOption(option, config, /*tensor_id=*/0, buffers, &workspace);
    }
  }
  const std::uint64_t before = AllocationCount();
  for (int i = 0; i < 10; ++i) {
    for (const CompressionOption& option : options) {
      Refill(buffers, initial);
      ExecuteOption(option, config, /*tensor_id=*/0, buffers, &workspace);
    }
  }
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
}

// The trainer's three options (SyncOption) on a warmed 1 x 4 workspace, with top-k and
// error feedback: top-k's sparse parts take the divisible scheme's decode-and-recompress
// path, which the fp16 and randomk executor cases below never reach. The second pass
// sends the payloads through a dropping and corrupting ChaosChannel, so drops,
// corruptions and their error-feedback refunds are held to zero allocations too.
TEST(AllocationCount, SchemesSteadyStateIsAllocationFree) {
  const size_t ranks = 4, n = 128;
  const auto topk = CreateCompressor(CompressorConfig{.algorithm = "topk", .ratio = 0.25});
  std::vector<CompressionOption> options;
  for (const SyncScheme scheme : {SyncScheme::kExactAllreduce,
                                  SyncScheme::kCompressedIndivisible,
                                  SyncScheme::kCompressedDivisible}) {
    options.push_back(SyncOption(scheme, ranks, topk.get()));
  }
  FaultSpec spec;
  spec.drop_probability = 0.2;
  spec.corrupt_probability = 0.2;
  const FaultInjector injector{FaultPlan(spec)};
  ChaosChannel chaos(&injector);
  const RankBuffers initial = MakeGradients(ranks, n, 7);

  for (PayloadChannel* channel : {static_cast<PayloadChannel*>(nullptr),
                                  static_cast<PayloadChannel*>(&chaos)}) {
    RankBuffers buffers = initial;
    std::vector<ErrorFeedback> feedback(ranks);
    ExecutorWorkspace workspace;
    ExecutorConfig config{.machines = 1, .gpus_per_machine = ranks,
                          .compressor = topk.get(), .feedback = &feedback,
                          .channel = channel};
    ChannelTally seen;
    auto step = [&](uint64_t iteration) {
      config.seed = iteration;
      chaos.BeginIteration(iteration);
      for (size_t t = 0; t < options.size(); ++t) {
        Refill(buffers, initial);
        const ChannelTally tally = ExecuteOption(options[t], config, t, buffers, &workspace);
        seen.payloads_dropped += tally.payloads_dropped;
        seen.payloads_corrupted += tally.payloads_corrupted;
      }
    };
    for (uint64_t iteration = 0; iteration < 3; ++iteration) {  // warm-up
      step(iteration);
    }
    seen = ChannelTally{};
    const std::uint64_t before = AllocationCount();
    for (uint64_t iteration = 3; iteration < 13; ++iteration) {
      step(iteration);
    }
    const std::uint64_t delta = AllocationCount() - before;
    EXPECT_EQ(delta, 0u) << (channel != nullptr ? "chaos channel" : "perfect network");
    if (channel != nullptr) {
      EXPECT_GT(seen.payloads_dropped, 0u);
      EXPECT_GT(seen.payloads_corrupted, 0u);
    }
  }
}

// The headline guarantee: a warmed ExecutorWorkspace executes EVERY candidate and
// baseline option with zero heap allocations per step.
TEST(AllocationCount, ExecutorSteadyStateIsAllocationFree) {
  const auto fp16 = CreateCompressor(CompressorConfig{.algorithm = "fp16"});
  const TreeConfig tree{2, 2, false};
  const ClusterSpec cluster = NvlinkCluster(2, 2);
  std::vector<CompressionOption> options = CandidateOptions(tree);
  options.push_back(InterOnlyIndivisibleOption(cluster, Device::kGpu));
  options.push_back(InterOnlyDivisibleOption(cluster, Device::kGpu));
  options.push_back(AlltoallAlltoallOption(cluster, Device::kGpu));

  const size_t ranks = 4, n = 128;
  const RankBuffers initial = MakeGradients(ranks, n, 11);
  RankBuffers buffers = initial;
  std::vector<ErrorFeedback> feedback(ranks);
  ExecutorWorkspace workspace;
  ExecutorConfig config{.machines = 2, .gpus_per_machine = 2, .compressor = fp16.get(),
                        .feedback = &feedback};

  for (int step = 0; step < 3; ++step) {  // warm-up: every option, every path
    config.seed = static_cast<uint64_t>(step);
    for (const CompressionOption& option : options) {
      Refill(buffers, initial);
      ExecuteOption(option, config, /*tensor_id=*/0, buffers, &workspace);
    }
  }
  const std::uint64_t before = AllocationCount();
  for (int step = 3; step < 8; ++step) {
    config.seed = static_cast<uint64_t>(step);
    for (const CompressionOption& option : options) {
      Refill(buffers, initial);
      ExecuteOption(option, config, /*tensor_id=*/0, buffers, &workspace);
    }
  }
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
}

// Checkpointed candidate scoring (docs/PERFORMANCE.md): once a checkpoint and a context
// have been through one sweep, a sweep that advances the checkpoint over every tensor
// and resumes every candidate from it allocates nothing. The resume copy-assigns the
// stopped engine into the context's storage, which keeps its capacity.
TEST(AllocationCount, TimelineCheckpointSweepIsAllocationFree) {
#ifdef ESPRESSO_VERIFY_SCHEDULES
  GTEST_SKIP() << "the schedule verifier materializes every simulated timeline";
#endif
  const ModelProfile model = Gpt2();
  const ClusterSpec cluster = PcieCluster();
  const auto dgc = CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.01});
  const TimelineEvaluator evaluator(model, cluster, *dgc);
  std::vector<CompressionOption> candidates = CandidateOptions(
      TreeConfig{cluster.machines, cluster.gpus_per_machine,
                 dgc->SupportsCompressedAggregation()});
  candidates.push_back(candidates.back().WithDevice(Device::kCpu));  // PCIe host copies
  Strategy base;
  for (size_t t = 0; t < model.tensors.size(); ++t) {
    base.options.push_back(candidates[t % candidates.size()]);
  }
  TimelineEvaluator::Checkpoint checkpoint;
  TimelineEvaluator::EvalContext ctx;
  double total = 0.0;
  auto sweep = [&] {
    for (size_t i = 0; i < base.size(); ++i) {
      evaluator.AdvanceCheckpoint(base, i, &checkpoint);  // rebuilt at 0, then in place
      for (const CompressionOption& candidate : candidates) {
        total += evaluator.ResumeWithOption(checkpoint, base, candidate, &ctx);
      }
    }
  };
  sweep();
  const std::uint64_t before = AllocationCount();
  sweep();
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_GT(total, 0.0);
}

// Same guarantee through the sparse compressed-domain aggregation paths (shared-seed
// Random-k over the full enumerated tree with aggregation enabled).
TEST(AllocationCount, SparseAggregationExecutorSteadyStateIsAllocationFree) {
  const auto randomk =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.2});
  const TreeConfig with_agg{2, 2, true};
  const std::vector<CompressionOption> options = EnumerateOptions(with_agg).options;

  const size_t ranks = 4, n = 100;
  const RankBuffers initial = MakeGradients(ranks, n, 13);
  RankBuffers buffers = initial;
  std::vector<ErrorFeedback> feedback(ranks);
  ExecutorWorkspace workspace;
  ExecutorConfig config{.machines = 2, .gpus_per_machine = 2,
                        .compressor = randomk.get(), .feedback = &feedback};

  for (int step = 0; step < 3; ++step) {  // warm-up
    config.seed = static_cast<uint64_t>(step);
    for (const CompressionOption& option : options) {
      Refill(buffers, initial);
      ExecuteOption(option, config, 0, buffers, &workspace);
    }
  }
  const std::uint64_t before = AllocationCount();
  for (int step = 3; step < 6; ++step) {
    config.seed = static_cast<uint64_t>(step);
    for (const CompressionOption& option : options) {
      Refill(buffers, initial);
      ExecuteOption(option, config, 0, buffers, &workspace);
    }
  }
  const std::uint64_t delta = AllocationCount() - before;
  EXPECT_EQ(delta, 0u);
}

}  // namespace
}  // namespace espresso
