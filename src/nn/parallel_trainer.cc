#include "src/nn/parallel_trainer.h"

#include <algorithm>
#include <chrono>

#include "src/core/decision_tree.h"
#include "src/ddl/strategy_executor.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"

namespace espresso {

namespace {

struct TrainerMetrics {
  obs::Counter steps;
  obs::Counter payloads_dropped;
  obs::Counter payloads_corrupted;
  obs::Histogram step_seconds;
  obs::Histogram compute_seconds;
  obs::Histogram sync_seconds;
  obs::Gauge overlap_ratio;
};

const TrainerMetrics& Metrics() {
  static const TrainerMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::GlobalMetrics();
    TrainerMetrics m;
    m.steps = r.RegisterCounter("espresso_trainer_steps_total",
                                "Global training steps executed");
    m.payloads_dropped = r.RegisterCounter("espresso_trainer_payloads_dropped_total",
                                           "Compressed payloads lost in transit");
    m.payloads_corrupted = r.RegisterCounter(
        "espresso_trainer_payloads_corrupted_total",
        "Compressed payloads the network delivered corrupted and that were aggregated as "
        "received");
    m.step_seconds = r.RegisterHistogram("espresso_trainer_step_seconds",
                                         "Per-iteration wall time (compute + sync)",
                                         obs::DefaultTimeBuckets());
    m.compute_seconds = r.RegisterHistogram(
        "espresso_trainer_compute_seconds",
        "Per-iteration gradient-computation wall time", obs::DefaultTimeBuckets());
    m.sync_seconds = r.RegisterHistogram(
        "espresso_trainer_sync_seconds",
        "Per-iteration gradient-synchronization wall time", obs::DefaultTimeBuckets());
    m.overlap_ratio = r.RegisterGauge(
        "espresso_trainer_overlap_ratio",
        "Compute share of the latest epoch's step time, compute/(compute+sync); "
        "1.0 means communication is fully hidden behind computation");
    return m;
  }();
  return metrics;
}

double SecondsSince(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - from).count();
}

}  // namespace

CompressionOption SyncOption(SyncScheme scheme, size_t workers,
                             const Compressor* compressor) {
  const bool aggregation =
      compressor != nullptr && compressor->SupportsCompressedAggregation();
  const char* label = "flat[ar]";
  if (scheme == SyncScheme::kCompressedIndivisible) {
    label = "flat[comp+agc+dec]";
  } else if (scheme == SyncScheme::kCompressedDivisible) {
    label = aggregation ? "flat[comp+a2ac|skip+agc+dec]" : "flat[comp+a2ac|dec+comp+agc+dec]";
  }
  for (const CompressionOption& option :
       EnumerateOptions(TreeConfig{1, workers, aggregation}).options) {
    if (option.label == label) {
      return option;
    }
  }
  ESP_CHECK(false) << "the one-machine decision tree has no " << label;
  return {};
}

std::vector<EpochStats> TrainDataParallel(const Dataset& train, const Dataset& test,
                                          const TrainConfig& config) {
  ESP_CHECK_GT(config.workers, 0u);
  if (config.scheme != SyncScheme::kExactAllreduce) {
    ESP_CHECK(config.compressor != nullptr);
  }
  Mlp model(train.x.cols, config.hidden_dim,
            1 + static_cast<size_t>(*std::max_element(train.labels.begin(),
                                                      train.labels.end())),
            config.seed);
  const size_t tensor_count = model.ParameterSizes().size();

  // One error-feedback store per (worker); tensor ids distinguish the four tensors.
  std::vector<ErrorFeedback> feedback(config.workers,
                                      ErrorFeedback(config.momentum_correction));
  const CompressionOption option = SyncOption(config.scheme, config.workers, config.compressor);
  ExecutorConfig exec{.machines = 1,
                      .gpus_per_machine = config.workers,
                      .compressor = config.compressor,
                      .feedback = config.error_feedback ? &feedback : nullptr,
                      .faults = config.faults};

  const size_t global_batch = config.workers * config.batch_per_worker;
  const size_t steps_per_epoch = train.size() / global_batch;
  ESP_CHECK_GT(steps_per_epoch, 0u);

  // Step-loop containers are hoisted so their storage persists across steps:
  // capacity-reusing assignment keeps the steady-state sync path off the heap. The
  // sync loop owns a dedicated executor workspace.
  std::vector<std::vector<std::vector<float>>> worker_grads(config.workers);
  std::vector<Dataset> worker_shards(config.workers);
  std::vector<std::vector<float>> aggregated(tensor_count);
  RankBuffers buffers(config.workers);
  ExecutorWorkspace sync_workspace;

  std::vector<EpochStats> history;
  uint64_t step_counter = 0;
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedSpan epoch_span("trainer.epoch", "trainer");
    double loss_sum = 0.0;
    ChannelTally epoch_tally;
    double epoch_compute_s = 0.0;
    double epoch_sync_s = 0.0;
    for (size_t step = 0; step < steps_per_epoch; ++step) {
      const auto step_start = std::chrono::steady_clock::now();
      exec.faults.iteration = step_counter;
      // Each worker's gradient on its disjoint shard of the global batch, in worker
      // order.
      for (size_t w = 0; w < config.workers; ++w) {
        const size_t begin = (step * global_batch + w * config.batch_per_worker);
        SliceInto(train, begin, config.batch_per_worker, &worker_shards[w]);
        const double loss = model.ComputeGradients(worker_shards[w].x,
                                                   worker_shards[w].labels, &worker_grads[w]);
        loss_sum += loss / static_cast<double>(config.workers);
      }
      const double compute_s = SecondsSince(step_start);
      const auto sync_start = std::chrono::steady_clock::now();

      // Synchronize tensor by tensor through the scheme's option.
      for (size_t t = 0; t < tensor_count; ++t) {
        for (size_t w = 0; w < config.workers; ++w) {
          buffers[w] = worker_grads[w][t];
        }
        exec.seed = DeriveSeed(config.seed, step_counter * tensor_count + t);
        epoch_tally += ExecuteOption(option, exec, t, buffers, &sync_workspace);
        // All ranks hold the same aggregate; take rank 0's (copy-assign keeps both the
        // rank buffer's and the aggregate slot's capacity warm).
        aggregated[t] = buffers[0];
        // Average over workers.
        for (float& v : aggregated[t]) {
          v /= static_cast<float>(config.workers);
        }
      }
      model.ApplyGradients(aggregated, config.learning_rate);
      ++step_counter;
      const double sync_s = SecondsSince(sync_start);
      epoch_compute_s += compute_s;
      epoch_sync_s += sync_s;
      registry.Add(Metrics().steps);
      registry.Observe(Metrics().step_seconds, compute_s + sync_s);
      registry.Observe(Metrics().compute_seconds, compute_s);
      registry.Observe(Metrics().sync_seconds, sync_s);
    }
    if (epoch_tally.payloads_dropped > 0) {
      registry.Add(Metrics().payloads_dropped, epoch_tally.payloads_dropped);
    }
    if (epoch_tally.payloads_corrupted > 0) {
      registry.Add(Metrics().payloads_corrupted, epoch_tally.payloads_corrupted);
    }
    const double epoch_total_s = epoch_compute_s + epoch_sync_s;
    registry.Set(Metrics().overlap_ratio,
                 epoch_total_s > 0.0 ? epoch_compute_s / epoch_total_s : 0.0);
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_sum / static_cast<double>(steps_per_epoch);
    stats.train_accuracy = model.Accuracy(train.x, train.labels);
    stats.test_accuracy = model.Accuracy(test.x, test.labels);
    stats.payloads_sent = epoch_tally.payloads_sent;
    stats.payloads_dropped = epoch_tally.payloads_dropped;
    stats.payloads_corrupted = epoch_tally.payloads_corrupted;
    stats.compute_seconds = epoch_compute_s;
    stats.sync_seconds = epoch_sync_s;
    history.push_back(stats);
  }
  return history;
}

}  // namespace espresso
