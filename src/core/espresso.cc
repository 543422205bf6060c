#include "src/core/espresso.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "src/models/model_stats.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace espresso {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Process-wide selector metrics; SelectorTelemetry stays the per-call view while the
// registry accumulates across selections.
struct SelectorMetrics {
  obs::Counter selections;
  obs::Counter evaluations;
  obs::Counter simulations;
  obs::Counter cache_hits;
  obs::Counter cache_misses;
  obs::Counter cache_evictions;
  obs::Counter fanouts;
  obs::Histogram select_seconds;
  obs::Histogram algorithm1_seconds;
  obs::Histogram refine_seconds;
  obs::Histogram trajectory_seconds;
  obs::Histogram offload_seconds;
};

const SelectorMetrics& Metrics() {
  static const SelectorMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::GlobalMetrics();
    SelectorMetrics m;
    m.selections = r.RegisterCounter("espresso_selector_selections_total",
                                     "Completed EspressoSelector::Select calls");
    m.evaluations = r.RegisterCounter("espresso_selector_evaluations_total",
                                      "Logical F(S) and bubble-set queries (cache hits included)");
    m.simulations = r.RegisterCounter("espresso_selector_simulations_total",
                                      "Timelines actually simulated by the selector");
    m.cache_hits = r.RegisterCounter("espresso_selector_cache_hits_total",
                                     "F(S) and bubble-set memoization cache hits");
    m.cache_misses = r.RegisterCounter("espresso_selector_cache_misses_total",
                                       "F(S) and bubble-set memoization cache misses");
    m.cache_evictions = r.RegisterCounter("espresso_selector_cache_evictions_total",
                                          "F(S) and bubble-set memoization cache evictions");
    m.fanouts = r.RegisterCounter("espresso_selector_fanouts_total",
                                  "Scoring batches whose cache misses were submitted "
                                  "to the process thread pool");
    m.select_seconds = r.RegisterHistogram("espresso_selector_select_seconds",
                                           "End-to-end Select() wall time",
                                           obs::DefaultTimeBuckets());
    m.algorithm1_seconds = r.RegisterHistogram(
        "espresso_selector_stage_algorithm1_seconds",
        "Algorithm 1 (GPU compression) stage wall time", obs::DefaultTimeBuckets());
    m.refine_seconds = r.RegisterHistogram("espresso_selector_stage_refine_seconds",
                                           "Fixpoint refinement stage wall time",
                                           obs::DefaultTimeBuckets());
    m.trajectory_seconds = r.RegisterHistogram(
        "espresso_selector_stage_trajectory_seconds",
        "Multi-start trajectory stage wall time", obs::DefaultTimeBuckets());
    m.offload_seconds = r.RegisterHistogram(
        "espresso_selector_stage_offload_seconds",
        "Algorithm 2 (CPU offload) stage wall time", obs::DefaultTimeBuckets());
    return m;
  }();
  return metrics;
}

}  // namespace

EspressoSelector::EspressoSelector(const ModelProfile& model, const ClusterSpec& cluster,
                                   const Compressor& compressor, SelectorOptions options)
    : model_(model),
      tree_config_{cluster.machines, cluster.gpus_per_machine,
                   compressor.SupportsCompressedAggregation()},
      options_(std::move(options)),
      evaluator_(model, cluster, compressor),
      default_option_(DefaultUncompressedOption(tree_config_)) {
  Init();
}

EspressoSelector::EspressoSelector(const ModelProfile& model, const ClusterSpec& cluster,
                                   const Compressor& compressor, SelectorOptions options,
                                   std::shared_ptr<EvaluationCache> shared_cache)
    : model_(model),
      tree_config_{cluster.machines, cluster.gpus_per_machine,
                   compressor.SupportsCompressedAggregation()},
      options_(std::move(options)),
      evaluator_(model, cluster, compressor),
      default_option_(DefaultUncompressedOption(tree_config_)),
      cache_(std::move(shared_cache)) {
  Init();
}

void EspressoSelector::Init() {
  // §4.3: the selector's cost models need a deterministic compression ratio; reject
  // content-dependent algorithms (they remain usable on the execution path).
  ESP_CHECK(evaluator_.compressor().HasDeterministicSize())
      << evaluator_.compressor().name()
      << " has a content-dependent compressed size and cannot "
      << "drive strategy selection (see §4.3's applicability requirement)";
  candidates_ =
      options_.candidates.empty() ? CandidateOptions(tree_config_) : options_.candidates;
  if (options_.force_compress_all) {
    std::erase_if(candidates_, [](const CompressionOption& c) { return !c.Compressed(); });
    ESP_CHECK(!candidates_.empty()) << "force_compress_all with no compressed candidates";
  }
  if (options_.force_cpu) {
    for (auto& candidate : candidates_) {
      candidate = candidate.WithDevice(Device::kCpu);
    }
  }
  for (const CompressionOption& candidate : candidates_) {
    candidate_fingerprints_.push_back(OptionFingerprint(candidate));
  }
  if (options_.cache_capacity > 0 && cache_ == nullptr) {
    cache_ = std::make_shared<EvaluationCache>(options_.cache_capacity);
  }
  contexts_.emplace_back();  // slot 0's, the caller's; ScoreBatch adds the others
}

template <typename KeyFn, typename PrepareFn, typename SimulateFn, typename StoreFn>
void EspressoSelector::ScoreBatch(size_t count, const KeyFn& key, const PrepareFn& prepare,
                                  const SimulateFn& simulate, const StoreFn& store) const {
  evaluations_ += count;
  misses_.clear();
  for (size_t i = 0; i < count; ++i) {
    Miss miss{i, 0, 0.0};
    if (cache_ != nullptr) {
      miss.key = key(i);
      if (cache_->Lookup(miss.key, &miss.value)) {
        store(i, miss.value);
        continue;
      }
    }
    misses_.push_back(miss);
  }
  if (!misses_.empty()) {
    prepare();
  }
  // The misses are simulated on min(threads, misses) slots, one EvalContext each.
  const size_t slots = std::min(options_.threads, misses_.size());
  while (contexts_.size() < slots) {
    contexts_.emplace_back();
  }
  if (slots > 1) {
    ++fanouts_;
  }
  ParallelFor(options_.threads, misses_.size(), [&](size_t m, size_t slot) {
    misses_[m].value = simulate(misses_[m].query, slot, &contexts_[slot]);
  });
  for (const Miss& miss : misses_) {
    if (cache_ != nullptr) {
      cache_->Insert(miss.key, miss.value);
    }
    store(miss.query, miss.value);
  }
}

double EspressoSelector::CachedScore(const Strategy& base, const StrategyHasher& hasher,
                                     size_t index,
                                     const CompressionOption& candidate) const {
  if (options_.myopic) {
    // Wall-clock scoring: the sum of the candidate's own op durations, ignoring all
    // interactions among tensors (§3.1: "Only considering tau_comm and tau_comp ...
    // can harm the performance"). Kept as the crippled Dimension-1 mechanism. Not
    // memoized: the values are not F(S) and the sum is cheaper than a cache probe.
    ++evaluations_;
    double total = 0.0;
    for (const Op& op : candidate.ops) {
      total += evaluator_.OpDuration(op, model_.tensors[index].elements);
    }
    return total;
  }
  double value = 0.0;
  ScoreBatch(
      1, [&](size_t) { return hasher.KeyWith(index, candidate); },
      [&] { evaluator_.AdvanceCheckpoint(base, index, &checkpoint_); },
      [&](size_t, size_t, TimelineEvaluator::EvalContext* ctx) {
        return evaluator_.ResumeWithOption(checkpoint_, base, candidate, ctx);
      },
      [&](size_t, double score) { value = score; });
  return value;
}

double EspressoSelector::CachedIterationTime(const Strategy& strategy) const {
  double value = 0.0;
  ScoreBatch(
      1, [&](size_t) { return StrategyFingerprint(strategy); }, [] {},
      [&](size_t, size_t, TimelineEvaluator::EvalContext* ctx) {
        return evaluator_.IterationTime(strategy, ctx);
      },
      [&](size_t, double time) { value = time; });
  return value;
}

void EspressoSelector::ScoreCandidates(const Strategy& base, const StrategyHasher& hasher,
                                       size_t index, std::vector<double>* times,
                                       const CompressionOption* skip) const {
  times->assign(candidates_.size(), kInf);
  scored_.clear();
  for (size_t j = 0; j < candidates_.size(); ++j) {
    if (skip == nullptr || !(candidates_[j] == *skip)) {
      scored_.push_back(j);  // a skipped candidate is the caller's, already scored
    }
  }
  if (options_.myopic) {
    for (const size_t j : scored_) {
      (*times)[j] = CachedScore(base, hasher, index, candidates_[j]);
    }
    return;
  }
  ScoreBatch(
      scored_.size(),
      [&](size_t i) { return hasher.KeyWith(index, candidate_fingerprints_[scored_[i]]); },
      [&] { evaluator_.AdvanceCheckpoint(base, index, &checkpoint_); },
      [&](size_t i, size_t, TimelineEvaluator::EvalContext* ctx) {
        return evaluator_.ResumeWithOption(checkpoint_, base, candidates_[scored_[i]], ctx);
      },
      [&](size_t i, double score) { (*times)[scored_[i]] = score; });
}

Strategy EspressoSelector::SelectGpuCompression(size_t* evaluations) const {
  const uint64_t evals_before = evaluations_;
  const size_t n = model_.tensors.size();
  Strategy strategy = UniformStrategy(n, options_.force_cpu
                                             ? default_option_.WithDevice(Device::kCpu)
                                             : default_option_);
  StrategyHasher hasher;
  hasher.Reset(strategy);

  // Lines 2-3: sort descending by size, tie-break by proximity to the output layer.
  const std::vector<std::vector<size_t>> groups = GroupBySizeDescending(model_);

  // Property 1: rule out uncompressed tensors communicated before bubbles. The bubble
  // set is a pure function of the strategy, memoized under its fingerprint like F(S).
  std::vector<bool> removed(n, false);
  std::vector<bool> before;
  auto remove_before_bubbles = [&] {
    if (options_.force_compress_all || options_.disable_bubble_elimination) {
      return;  // every tensor stays in play
    }
    ++evaluations_;
    const uint64_t key = hasher.Key();
    if (cache_ == nullptr || !cache_->LookupBubbles(key, &before)) {
      before = evaluator_.BeforeBubble(strategy, &contexts_[0]);
      if (cache_ != nullptr) {
        cache_->InsertBubbles(key, before);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (before[i] && !strategy.options[i].Compressed()) {
        removed[i] = true;
      }
    }
  };
  remove_before_bubbles();

  std::vector<double> times;
  for (const auto& group : groups) {
    for (size_t index : group) {
      if (removed[index]) {
        continue;
      }
      // GetBestOption: the current assignment plus every candidate, scored on the
      // full-strategy timeline. Under force_compress_all the uncompressed current
      // assignment is not a legal outcome, so candidates compete from scratch.
      double best_time = options_.force_compress_all &&
                                 !strategy.options[index].Compressed()
                             ? kInf
                             : CachedScore(strategy, hasher, index,
                                           strategy.options[index]);
      ScoreCandidates(strategy, hasher, index, &times, nullptr);
      // Deterministic reduction: strict improvement only, so ties keep the earlier
      // (lower-index) candidate — byte-identical to the serial scan.
      const CompressionOption* best = nullptr;
      for (size_t j = 0; j < candidates_.size(); ++j) {
        if (times[j] < best_time) {
          best_time = times[j];
          best = &candidates_[j];
        }
      }
      if (best != nullptr) {
        strategy.options[index] = *best;
        hasher.Set(index, *best);
        // Line 8: new bubbles can appear after each assignment; nothing moved if the
        // option is unchanged, so re-derive only on a change.
        remove_before_bubbles();
      }
    }
  }
  if (evaluations != nullptr) {
    *evaluations += evaluations_ - evals_before;
  }
  return strategy;
}

Strategy EspressoSelector::OffloadToCpu(const Strategy& gpu_strategy, size_t* combinations,
                                        bool* exact, size_t* evaluations) const {
  const uint64_t evals_before = evaluations_;
  const size_t n = gpu_strategy.options.size();

  // T_gpu: tensors whose option compresses (on GPUs). Group by (size, option
  // identity); groups keep backward order, i.e. members are already sorted by
  // descending distance to the output layer (Lemma 1's offload order is a prefix).
  // Option identity is interned into small integers so the grouping key is a pure
  // integer pair — no per-tensor string copies on this path.
  struct OffloadGroup {
    std::vector<size_t> members;
  };
  std::vector<const CompressionOption*> distinct;
  auto intern = [&](const CompressionOption& option) -> size_t {
    for (size_t d = 0; d < distinct.size(); ++d) {
      if (*distinct[d] == option) {
        return d;
      }
    }
    distinct.push_back(&option);
    return distinct.size() - 1;
  };
  std::map<std::pair<size_t, size_t>, size_t> group_index;  // (elements, option id)
  std::vector<OffloadGroup> unordered_groups;
  for (size_t i = 0; i < n; ++i) {
    if (gpu_strategy.options[i].Compressed() &&
        gpu_strategy.options[i].UsesDevice(Device::kGpu)) {
      const std::pair<size_t, size_t> key{model_.tensors[i].elements,
                                          intern(gpu_strategy.options[i])};
      const auto [it, inserted] = group_index.try_emplace(key, unordered_groups.size());
      if (inserted) {
        unordered_groups.emplace_back();
      }
      unordered_groups[it->second].members.push_back(i);
    }
  }
  std::vector<OffloadGroup> groups;
  groups.reserve(unordered_groups.size());
  for (const auto& [key, gi] : group_index) {
    groups.push_back(std::move(unordered_groups[gi]));
  }
  if (groups.empty()) {
    if (combinations != nullptr) {
      *combinations = 0;
    }
    return gpu_strategy;
  }
  const size_t num_groups = groups.size();

  // Search-space size: prod(|G_i| + 1) (Theorem 1).
  size_t product = 1;
  bool overflow = false;
  for (const auto& g : groups) {
    if (product > options_.offload_search_budget) {
      overflow = true;
      break;
    }
    product *= g.members.size() + 1;
  }
  overflow = overflow || product > options_.offload_search_budget;
  if (exact != nullptr) {
    *exact = !overflow;
  }

  // Per-group CPU variant (identical content across a group's members) and the
  // wrapping fingerprint deltas of offloading the first c members, so a combo's cache
  // key is O(groups) to derive from the base strategy's additive total.
  std::vector<CompressionOption> cpu_variants;
  cpu_variants.reserve(num_groups);
  std::vector<std::vector<uint64_t>> delta_prefix(num_groups);
  StrategyHasher base_hasher;
  base_hasher.Reset(gpu_strategy);
  const uint64_t base_total = base_hasher.Total();
  for (size_t gi = 0; gi < num_groups; ++gi) {
    const auto& members = groups[gi].members;
    cpu_variants.push_back(gpu_strategy.options[members[0]].WithDevice(Device::kCpu));
    delta_prefix[gi].resize(members.size() + 1);
    delta_prefix[gi][0] = 0;
    for (size_t k = 0; k < members.size(); ++k) {
      const uint64_t delta =
          MixIndexedOption(members[k], cpu_variants[gi]) -
          MixIndexedOption(members[k], gpu_strategy.options[members[k]]);
      delta_prefix[gi][k + 1] = delta_prefix[gi][k] + delta;
    }
  }

  // Scores a batch of odometer states (flattened per-group counts). Each ParallelFor slot
  // keeps one override table and applies/undoes the per-combo deltas on it — the full
  // strategy is never copied per visit.
  std::vector<std::vector<const CompressionOption*>> tables(
      std::max<size_t>(1, options_.threads));
  auto score_combos = [&](const std::vector<size_t>& flat, size_t count,
                          std::vector<double>* times) {
    times->resize(count);
    ScoreBatch(
        count,
        [&](size_t b) {
          const size_t* counts = flat.data() + b * num_groups;
          uint64_t total = base_total;
          for (size_t gi = 0; gi < num_groups; ++gi) {
            total += delta_prefix[gi][counts[gi]];
          }
          return FinalizeStrategyKey(total);
        },
        [] {},
        [&](size_t b, size_t slot, TimelineEvaluator::EvalContext* ctx) {
          const size_t* counts = flat.data() + b * num_groups;
          std::vector<const CompressionOption*>& table = tables[slot];
          if (table.size() != n) {
            table.assign(n, nullptr);
          }
          for (size_t gi = 0; gi < num_groups; ++gi) {
            for (size_t k = 0; k < counts[gi]; ++k) {
              table[groups[gi].members[k]] = &cpu_variants[gi];
            }
          }
          const double t = evaluator_.ScoreWithOverrides(gpu_strategy, table.data(), ctx);
          for (size_t gi = 0; gi < num_groups; ++gi) {
            for (size_t k = 0; k < counts[gi]; ++k) {
              table[groups[gi].members[k]] = nullptr;
            }
          }
          return t;
        },
        [&](size_t b, double t) { (*times)[b] = t; });
  };

  // Materializes the winning odometer state — the only place a strategy is copied.
  auto materialize = [&](const size_t* counts) {
    Strategy s = gpu_strategy;
    for (size_t gi = 0; gi < num_groups; ++gi) {
      for (size_t k = 0; k < counts[gi]; ++k) {
        s.options[groups[gi].members[k]] = cpu_variants[gi];
      }
    }
    return s;
  };

  size_t visited = 0;
  std::vector<size_t> best_counts(num_groups, 0);
  double best_time = kInf;
  std::vector<size_t> flat;
  std::vector<double> times;

  if (!overflow) {
    // Exhaustive traversal of U (odometer over per-group counts), scored as one batch.
    // The reduction keeps the earliest odometer state on ties, matching the serial
    // visit order exactly.
    flat.reserve(product * num_groups);
    std::vector<size_t> counts(num_groups, 0);
    for (;;) {
      flat.insert(flat.end(), counts.begin(), counts.end());
      size_t gi = 0;
      while (gi < num_groups) {
        if (++counts[gi] <= groups[gi].members.size()) {
          break;
        }
        counts[gi] = 0;
        ++gi;
      }
      if (gi == num_groups) {
        break;
      }
    }
    const size_t combo_count = flat.size() / num_groups;
    score_combos(flat, combo_count, &times);
    visited = combo_count;
    size_t best_index = 0;
    best_time = times[0];  // state 0 is the all-GPU input strategy
    for (size_t b = 1; b < combo_count; ++b) {
      if (times[b] < best_time) {
        best_time = times[b];
        best_index = b;
      }
    }
    std::copy_n(flat.data() + best_index * num_groups, num_groups, best_counts.begin());
  } else {
    // Coordinate descent over group counts until a fixpoint. Each group sweep scores
    // every count in one batch; the reduction scans counts in ascending order with
    // strict improvement, reproducing the serial sweep's tie-breaking.
    std::vector<size_t> counts(num_groups, 0);
    flat.assign(counts.begin(), counts.end());
    score_combos(flat, 1, &times);
    best_time = times[0];
    ++visited;
    std::vector<size_t> swept;
    bool improved = true;
    while (improved) {
      improved = false;
      for (size_t gi = 0; gi < num_groups; ++gi) {
        flat.clear();
        swept.clear();
        for (size_t c = 0; c <= groups[gi].members.size(); ++c) {
          if (c == counts[gi]) {
            continue;  // the incumbent count's time is already <= best_time
          }
          for (size_t gj = 0; gj < num_groups; ++gj) {
            flat.push_back(gj == gi ? c : counts[gj]);
          }
          swept.push_back(c);
        }
        score_combos(flat, swept.size(), &times);
        visited += swept.size();
        size_t best_count = counts[gi];
        for (size_t j = 0; j < swept.size(); ++j) {
          if (times[j] < best_time) {
            best_time = times[j];
            best_count = swept[j];
            improved = true;
          }
        }
        counts[gi] = best_count;
      }
    }
    best_counts = counts;
  }

  if (combinations != nullptr) {
    *combinations = visited;
  }
  if (evaluations != nullptr) {
    *evaluations += evaluations_ - evals_before;
  }
  return materialize(best_counts.data());
}

bool EspressoSelector::RefineSweep(Strategy* strategy, size_t* evaluations) const {
  ESP_CHECK(strategy != nullptr);
  const uint64_t evals_before = evaluations_;
  StrategyHasher hasher;
  hasher.Reset(*strategy);
  bool improved = false;
  std::vector<double> times;
  for (size_t index = 0; index < strategy->options.size(); ++index) {
    double best_time = CachedScore(*strategy, hasher, index, strategy->options[index]);
    ScoreCandidates(*strategy, hasher, index, &times, &strategy->options[index]);
    const CompressionOption* best = nullptr;
    for (size_t j = 0; j < candidates_.size(); ++j) {
      if (times[j] < best_time) {
        best_time = times[j];
        best = &candidates_[j];
      }
    }
    if (best != nullptr) {
      strategy->options[index] = *best;
      hasher.Set(index, *best);
      improved = true;
    }
  }
  if (evaluations != nullptr) {
    *evaluations += evaluations_ - evals_before;
  }
  return improved;
}

SelectionResult EspressoSelector::Select() const {
  obs::ScopedSpan span("selector.select", "selector", Metrics().select_seconds);
  SelectionResult result;
  const uint64_t evals_start = evaluations_;
  const uint64_t sims_start = evaluator_.simulations();
  const uint64_t fanouts_start = fanouts_;
  const EvalCacheStats cache_start = cache_ != nullptr ? cache_->stats() : EvalCacheStats{};
  uint64_t nested_evals = 0;
  uint64_t nested_sims = 0;
  uint64_t nested_fanouts = 0;

  const auto t0 = std::chrono::steady_clock::now();
  std::optional<Strategy> forced_trajectory;
  Strategy gpu;
  {
    obs::ScopedSpan stage("selector.algorithm1", "selector");
    gpu = SelectGpuCompression(nullptr);
  }
  const auto t_alg1 = std::chrono::steady_clock::now();
  result.telemetry.algorithm1_seconds = Seconds(t0, t_alg1);

  // Greedy refinement to a fixpoint: the first pass's assignments were made against a
  // partially-uncompressed strategy; re-visiting each tensor against the final mix
  // removes that order dependence (and keeps Espresso ahead of every restricted
  // mechanism in §5.3's study). Skipped in myopic mode, whose scoring is context-free.
  if (!options_.myopic) {
    {
      obs::ScopedSpan stage("selector.refine", "selector");
      for (int pass = 0; pass < 2; ++pass) {
        if (!RefineSweep(&gpu, nullptr)) {
          break;
        }
      }
    }
    const auto t_refine = std::chrono::steady_clock::now();
    result.telemetry.refine_seconds = Seconds(t_alg1, t_refine);
    obs::ScopedSpan trajectory_stage("selector.trajectory", "selector");

    // Multi-start escape hatch: greedy trajectories from a mixed strategy can miss
    // optima where most tensors share one option (e.g. a uniformly-divisible pipeline).
    // Seed a second trajectory from the best uniform assignment — when it is remotely
    // competitive — and keep the winner.
    const size_t n = model_.tensors.size();
    const double gpu_time = CachedIterationTime(gpu);
    std::vector<double> uniform_times(candidates_.size(), kInf);
    ScoreBatch(
        candidates_.size(),
        [&](size_t j) { return UniformStrategyFingerprint(n, candidates_[j]); }, [] {},
        [&](size_t j, size_t, TimelineEvaluator::EvalContext* ctx) {
          return evaluator_.IterationTime(UniformStrategy(n, candidates_[j]), ctx);
        },
        [&](size_t j, double time) { uniform_times[j] = time; });
    double best_uniform_time = kInf;
    const CompressionOption* best_uniform = nullptr;
    for (size_t j = 0; j < candidates_.size(); ++j) {
      if (uniform_times[j] < best_uniform_time) {
        best_uniform_time = uniform_times[j];
        best_uniform = &candidates_[j];
      }
    }
    if (best_uniform != nullptr && best_uniform_time < 1.3 * gpu_time) {
      Strategy alternative = UniformStrategy(n, *best_uniform);
      for (int pass = 0; pass < 2; ++pass) {
        if (!RefineSweep(&alternative, nullptr)) {
          break;
        }
      }
      if (CachedIterationTime(alternative) < CachedIterationTime(gpu)) {
        gpu = std::move(alternative);
      }
    }
    // Third trajectory: greedy with compression forced everywhere. Joint optima where
    // *every* tensor compresses are separated from the FP32-seeded trajectory by
    // multi-tensor moves a per-tensor sweep cannot make. The trajectories are compared
    // after CPU offloading (below), since offloading interacts with the mix.
    if (!options_.force_compress_all && !options_.force_cpu) {
      SelectorOptions forced = options_;
      forced.force_compress_all = true;
      forced.candidates = candidates_;
      // The nested selector shares this selector's evaluation cache: its evaluator is
      // configured identically, so fingerprints and F(S) values agree.
      EspressoSelector all_compressed(model_, evaluator_.cluster(),
                                      evaluator_.compressor(), std::move(forced), cache_);
      forced_trajectory = all_compressed.SelectGpuCompression(nullptr);
      // Refine within the forced (compressed-only) space: refining against the full
      // candidate set would greedily decompress tensors and collapse back into the
      // first trajectory's basin before offloading can pay for the compression.
      if (all_compressed.RefineSweep(&*forced_trajectory, nullptr)) {
        all_compressed.RefineSweep(&*forced_trajectory, nullptr);
      }
      // Keep even much-worse pre-offload trajectories alive: CPU offloading is what
      // rescues an everything-compressed strategy from its GPU contention.
      if (CachedIterationTime(*forced_trajectory) > 2.0 * CachedIterationTime(gpu)) {
        forced_trajectory.reset();
      }
      nested_evals = all_compressed.evaluations_;
      nested_sims = all_compressed.evaluator_.simulations();
      nested_fanouts = all_compressed.fanouts_;
    }
    result.telemetry.trajectory_seconds =
        Seconds(t_refine, std::chrono::steady_clock::now());
  }
  const auto t1 = std::chrono::steady_clock::now();

  if (options_.enable_cpu_offload && !options_.force_cpu) {
    obs::ScopedSpan stage("selector.offload", "selector");
    result.strategy =
        OffloadToCpu(gpu, &result.offload_combinations, &result.offload_exact, nullptr);
    if (forced_trajectory.has_value()) {
      const Strategy alternative = OffloadToCpu(*forced_trajectory, nullptr, nullptr,
                                                nullptr);
      if (CachedIterationTime(alternative) < CachedIterationTime(result.strategy)) {
        result.strategy = alternative;
      }
    }
    result.telemetry.offload_seconds = Seconds(t1, std::chrono::steady_clock::now());
  } else {
    result.strategy = std::move(gpu);
  }
  result.iteration_time = CachedIterationTime(result.strategy);

  result.telemetry.evaluations = (evaluations_ - evals_start) + nested_evals;
  result.telemetry.simulations = (evaluator_.simulations() - sims_start) + nested_sims;
  if (cache_ != nullptr) {
    const EvalCacheStats stats = cache_->stats();
    result.telemetry.cache_hits = stats.hits - cache_start.hits;
    result.telemetry.cache_misses = stats.misses - cache_start.misses;
    result.telemetry.cache_evictions = stats.evictions - cache_start.evictions;
  }
  result.telemetry.fanouts = (fanouts_ - fanouts_start) + nested_fanouts;
  result.telemetry.threads = options_.threads;
  result.telemetry.total_seconds = Seconds(t0, std::chrono::steady_clock::now());

  // Publish this selection's deltas so the global registry aggregates across
  // selections; the stage histograms record the same walls the telemetry carries.
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const SelectorMetrics& metrics = Metrics();
  registry.Add(metrics.selections);
  registry.Add(metrics.evaluations, result.telemetry.evaluations);
  registry.Add(metrics.simulations, result.telemetry.simulations);
  registry.Add(metrics.cache_hits, result.telemetry.cache_hits);
  registry.Add(metrics.cache_misses, result.telemetry.cache_misses);
  registry.Add(metrics.cache_evictions, result.telemetry.cache_evictions);
  registry.Add(metrics.fanouts, result.telemetry.fanouts);
  registry.Observe(metrics.algorithm1_seconds, result.telemetry.algorithm1_seconds);
  registry.Observe(metrics.refine_seconds, result.telemetry.refine_seconds);
  registry.Observe(metrics.trajectory_seconds, result.telemetry.trajectory_seconds);
  registry.Observe(metrics.offload_seconds, result.telemetry.offload_seconds);
  return result;
}

}  // namespace espresso
