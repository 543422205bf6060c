// Pins TrainDataParallel's trajectories bit for bit. Each run hashes, epoch by epoch,
// the bits of the train loss and the test accuracy together with the epoch's drop and
// corruption counts, and compares the hash with a constant. A change to the
// synchronization path that moves one float of one aggregated gradient moves the
// hash; re-pin only for an intended change of the training arithmetic.
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/fault/chaos_channel.h"
#include "src/nn/parallel_trainer.h"

namespace espresso {
namespace {

// FNV-1a over the little-endian bytes of every epoch's pinned fields.
uint64_t Fingerprint(const std::vector<EpochStats>& history) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const EpochStats& epoch : history) {
    mix(std::bit_cast<uint64_t>(epoch.train_loss));
    mix(std::bit_cast<uint64_t>(epoch.test_accuracy));
    mix(epoch.payloads_dropped);
    mix(epoch.payloads_corrupted);
  }
  return hash;
}

// Small enough for the sanitizer legs: 8 steps per epoch, 3 epochs, 4 tensors of at
// most 16 x 8 weights.
struct PinnedRun {
  Dataset train;
  Dataset test;
  TrainConfig config;

  PinnedRun() {
    const Dataset all = MakeGaussianBlobs(384, 8, 3, 2.5, 7);
    train = Slice(all, 0, 256);
    test = Slice(all, 256, 128);
    config.workers = 4;
    config.hidden_dim = 16;
    config.batch_per_worker = 8;
    config.learning_rate = 0.05;
    config.epochs = 3;
    config.seed = 31;
  }

  uint64_t Run(SyncScheme scheme, const char* algorithm) {
    const auto compressor =
        CreateCompressor(CompressorConfig{.algorithm = algorithm, .ratio = 0.25});
    config.scheme = scheme;
    config.compressor = compressor.get();
    return Fingerprint(TrainDataParallel(train, test, config));
  }
};

TEST(ParallelTrainerPin, ExactAllreduceFourWorkers) {
  PinnedRun run;
  EXPECT_EQ(Fingerprint(TrainDataParallel(run.train, run.test, run.config)),
            0x7aa1bc9172638082ULL);
}

TEST(ParallelTrainerPin, ExactAllreduceOneWorker) {
  PinnedRun run;
  run.config.workers = 1;
  run.config.batch_per_worker = 32;
  EXPECT_EQ(Fingerprint(TrainDataParallel(run.train, run.test, run.config)),
            0x7c43e4cbc44f7552ULL);
}

TEST(ParallelTrainerPin, IndivisibleDgcWithMomentumCorrection) {
  PinnedRun run;
  run.config.momentum_correction = 0.5;
  EXPECT_EQ(run.Run(SyncScheme::kCompressedIndivisible, "dgc"), 0x589fbe91f6d1e57fULL);
}

TEST(ParallelTrainerPin, DivisibleDgc) {
  PinnedRun run;
  EXPECT_EQ(run.Run(SyncScheme::kCompressedDivisible, "dgc"), 0x8efddd73f63ffab8ULL);
}

// Shared-seed Random-k aggregates the divisible scheme's parts in the compressed
// domain.
TEST(ParallelTrainerPin, DivisibleRandomk) {
  PinnedRun run;
  EXPECT_EQ(run.Run(SyncScheme::kCompressedDivisible, "randomk"), 0xbcc2b8ce338ad6a5ULL);
}

TEST(ParallelTrainerPin, DivisibleEfSignSgd) {
  PinnedRun run;
  EXPECT_EQ(run.Run(SyncScheme::kCompressedDivisible, "efsignsgd"), 0xa4da3c5b00faa30aULL);
}

TEST(ParallelTrainerPin, DivisibleFp16) {
  PinnedRun run;
  EXPECT_EQ(run.Run(SyncScheme::kCompressedDivisible, "fp16"), 0xf2e137423201b401ULL);
}

TEST(ParallelTrainerPin, DivisibleDgcWithoutErrorFeedback) {
  PinnedRun run;
  run.config.error_feedback = false;
  EXPECT_EQ(run.Run(SyncScheme::kCompressedDivisible, "dgc"), 0x0ccd7c56c7e4013bULL);
}

// Drops are folded back into the senders' residuals and corrupted payloads are
// aggregated as delivered; both counts enter the hash.
TEST(ParallelTrainerPin, IndivisibleDgcThroughLossyChannel) {
  FaultSpec spec;
  spec.seed = 5;
  spec.drop_probability = 0.2;
  spec.corrupt_probability = 0.1;
  const FaultPlan plan(spec);
  const FaultInjector injector(plan);
  ChaosChannel channel(&injector);
  PinnedRun run;
  run.config.channel = &channel;
  const uint64_t fingerprint = run.Run(SyncScheme::kCompressedIndivisible, "dgc");
  EXPECT_GT(channel.stats().dropped, 0u);
  EXPECT_GT(channel.stats().corrupted, 0u);
  EXPECT_EQ(fingerprint, 0x45e9240cc1d2df16ULL);
}

}  // namespace
}  // namespace espresso
