#include "src/core/timeline.h"

#include <algorithm>
#include <cmath>

#include "src/costmodel/collective_cost.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"

#ifdef ESPRESSO_VERIFY_SCHEDULES
#include "src/analysis/schedule_verifier.h"
#endif

namespace espresso {

namespace {

// Minimum idle gap that counts as a bubble. Gaps below this are collective-latency and
// scheduling noise between back-to-back small tensors, not the compute-gated idle
// periods Figure 9 depicts.
constexpr double kBubbleEpsilon = 100e-6;

// Tolerance for "this op started exactly when its predecessor finished".
constexpr double kChainEpsilon = 1e-9;

#ifdef ESPRESSO_VERIFY_SCHEDULES
// The verifier audits every schedule, so every schedule records its ops.
constexpr bool kVerifySchedules = true;
#else
constexpr bool kVerifySchedules = false;
#endif

// Resource ids are fixed by construction order in StartSchedule().
enum FixedResource : ResourceId {
  kGpuResource = 0,
  kCpuResource = 1,
  kIntraResource = 2,
  kInterResource = 3,
};

const char* FixedResourceName(ResourceId id) {
  switch (id) {
    case kGpuResource:
      return "gpu";
    case kCpuResource:
      return "cpu";
    case kIntraResource:
      return "intra";
    case kInterResource:
      return "inter";
    default:
      return "?";
  }
}

// Recorded at the simulation chokepoint, so the counter tracks CompleteSchedule
// exactly — the same quantity TimelineEvaluator::simulations() reports per instance.
obs::Counter SimulationsCounter() {
  static const obs::Counter counter = obs::GlobalMetrics().RegisterCounter(
      "espresso_timeline_simulations_total",
      "Timeline simulations executed (full runs and checkpoint resumes; building or "
      "advancing a checkpoint counts none)");
  return counter;
}

// compute(i) is task i: StartSchedule adds the backward-compute chain first.
TaskId ComputeTask(size_t i) { return static_cast<TaskId>(i); }

obs::Histogram EvaluateSecondsHistogram() {
  static const obs::Histogram histogram = obs::GlobalMetrics().RegisterHistogram(
      "espresso_timeline_evaluate_seconds",
      "Wall time of TimelineEvaluator::Evaluate calls", obs::DefaultTimeBuckets());
  return histogram;
}

}  // namespace

TimelineEvaluator::TimelineEvaluator(const ModelProfile& model, const ClusterSpec& cluster,
                                     const Compressor& compressor, bool zero_compression_cost)
    : model_(model),
      cluster_(cluster),
      compressor_(compressor),
      cost_model_(MakeCompressionCostModel(cluster, compressor.name())),
      zero_compression_cost_(zero_compression_cost) {
  // All g GPUs of a machine share one NIC, and the simulation follows one
  // representative GPU whose inter-machine ops carry 1/g of the model: price them at
  // 1/g of the NIC bandwidth so the representative timeline reflects the machine's full
  // egress load. Flat collectives span every GPU and share the NIC the same way.
  if (cluster_.machines > 1) {
    inter_link_ = cluster_.inter;
    inter_link_.bytes_per_second /= static_cast<double>(cluster_.gpus_per_machine);
    flat_link_ = inter_link_;
    flat_link_.name = "flat";
  } else {
    inter_link_ = cluster_.inter;
    flat_link_ = cluster_.intra;
  }
}

double TimelineEvaluator::OpDuration(const Op& op, size_t elements) const {
  const double domain_elements = op.domain_fraction * static_cast<double>(elements);
  const double domain_bytes = domain_elements * sizeof(float);
  const double payload_elements = op.payload_fraction * static_cast<double>(elements);

  // Machine-level CPU ops (parameter-server pipelines) recruit the whole host CPU with
  // partial parallel efficiency instead of one GPU's worker share.
  const double machine_boost = (op.machine_level && op.device == Device::kCpu)
                                   ? static_cast<double>(cluster_.gpus_per_machine)
                                   : 1.0;

  switch (op.task) {
    case ActionTask::kCompress: {
      if (zero_compression_cost_) {
        return 0.0;
      }
      return cost_model_.CompressTime(op.device, domain_bytes) / machine_boost;
    }
    case ActionTask::kDecompress: {
      if (zero_compression_cost_) {
        return 0.0;
      }
      const double payload_bytes = static_cast<double>(
          compressor_.CompressedBytes(static_cast<size_t>(std::llround(payload_elements))));
      return cost_model_.AggregateDecompressTime(op.device, domain_bytes, payload_bytes,
                                                 op.fan_in) /
             machine_boost;
    }
    case ActionTask::kComm: {
      const LinkSpec* link = nullptr;
      size_t p = 1;
      switch (op.phase) {
        case CommPhase::kFlat:
          link = &flat_link_;
          p = cluster_.total_gpus();
          break;
        case CommPhase::kIntraFirst:
        case CommPhase::kIntraSecond:
          link = &cluster_.intra;
          p = cluster_.gpus_per_machine;
          break;
        case CommPhase::kInter:
          link = &inter_link_;
          p = cluster_.machines;
          break;
      }
      const double payload_bytes =
          op.compressed
              ? static_cast<double>(compressor_.CompressedBytes(
                    static_cast<size_t>(std::llround(payload_elements))))
              : payload_elements * sizeof(float);
      switch (op.routine) {
        case Routine::kAllreduce:
          return AllreduceTime(p, domain_bytes, *link);
        case Routine::kReduceScatter:
          return ReduceScatterTime(p, domain_bytes, *link);
        case Routine::kAllgather:
          return AllgatherTime(p, payload_bytes, *link);
        case Routine::kReduce:
          return ReduceTime(p, domain_bytes, *link);
        case Routine::kBroadcast:
          return BroadcastTime(p, payload_bytes, *link);
        case Routine::kAlltoall:
          return AlltoallTime(p, payload_bytes, *link);
        case Routine::kGather:
          return GatherTime(p, payload_bytes, *link);
        case Routine::kNone:
          break;
      }
      ESP_CHECK(false) << "comm op without routine";
      return 0.0;
    }
  }
  return 0.0;
}

void TimelineEvaluator::SetResourceScales(const ResourceScales& scales) {
  ESP_CHECK_GT(scales.gpu, 0.0);
  ESP_CHECK_GT(scales.cpu, 0.0);
  ESP_CHECK_GT(scales.intra, 0.0);
  ESP_CHECK_GT(scales.inter, 0.0);
  resource_scales_ = scales;
}

void TimelineEvaluator::StartSchedule(EvalContext* ctx) const {
  SimEngine& engine = ctx->engine;
  if (ctx->engine_ready && ctx->cpu_lanes == cluster_.cpu_workers_per_gpu) {
    engine.Reset();  // keeps task storage, event heap, and resource allocations
  } else {
    engine = SimEngine();
    const ResourceId gpu_id = engine.AddSerialResource("gpu");
    const ResourceId cpu_id = engine.AddPoolResource("cpu", cluster_.cpu_workers_per_gpu);
    const ResourceId intra_id = engine.AddSerialResource("intra");
    const ResourceId inter_id = engine.AddSerialResource("inter");
    ESP_CHECK_EQ(gpu_id, kGpuResource);
    ESP_CHECK_EQ(cpu_id, kCpuResource);
    ESP_CHECK_EQ(intra_id, kIntraResource);
    ESP_CHECK_EQ(inter_id, kInterResource);
    ctx->engine_ready = true;
    ctx->cpu_lanes = cluster_.cpu_workers_per_gpu;
  }
  if (!resource_scales_.Neutral()) {
    engine.SetResourceSpeedFactor(kGpuResource, resource_scales_.gpu);
    engine.SetResourceSpeedFactor(kCpuResource, resource_scales_.cpu);
    engine.SetResourceSpeedFactor(kIntraResource, resource_scales_.intra);
    engine.SetResourceSpeedFactor(kInterResource, resource_scales_.inter);
  }
  // Backward-compute chain: compute(i) depends on compute(i-1). Added first so all
  // compute tasks have ids 0..n-1; pipeline ops of tensor i carry priority i, so a
  // compression kernel of tensor i wins the GPU over compute of tensor i+1 — the
  // contention of Figure 2(c).
  const size_t n = model_.tensors.size();
  for (size_t i = 0; i < n; ++i) {
    engine.AddChainTask(kGpuResource, model_.tensors[i].backward_time_s,
                        i == 0 ? SimEngine::kNoDependency : ComputeTask(i - 1),
                        static_cast<int>(i));
  }
  ctx->op_tasks.clear();
}

void TimelineEvaluator::AppendTensorOps(size_t i, const CompressionOption& option,
                                        bool record, EvalContext* ctx) const {
  SimEngine& engine = ctx->engine;
  auto resource_for = [&](const Op& op) -> ResourceId {
    if (op.task == ActionTask::kComm) {
      switch (op.phase) {
        case CommPhase::kFlat:
          return cluster_.machines == 1 ? kIntraResource : kInterResource;
        case CommPhase::kIntraFirst:
        case CommPhase::kIntraSecond:
          return kIntraResource;
        case CommPhase::kInter:
          return kInterResource;
      }
    }
    return op.device == Device::kGpu ? kGpuResource : kCpuResource;
  };
  const bool host_copies = cluster_.host_copy_contends_intra && !zero_compression_cost_;
  const int priority = static_cast<int>(i);
  TaskId prev = ComputeTask(i);
  for (size_t k = 0; k < option.ops.size(); ++k) {
    const Op& op = option.ops[k];
    const double domain_bytes =
        op.domain_fraction * static_cast<double>(model_.tensors[i].elements) * sizeof(float);
    // On PCIe machines the host copy feeding a CPU compressor shares the intra fabric.
    if (host_copies && op.task == ActionTask::kCompress && op.device == Device::kCpu) {
      prev = engine.AddChainTask(kIntraResource, cluster_.intra.TransferTime(domain_bytes),
                                 prev, priority);
      if (record) {
        ctx->op_tasks.push_back({i, kHostCopyOp, kIntraResource, prev});
      }
    }
    const double duration = OpDuration(op, model_.tensors[i].elements);
    const ResourceId resource = resource_for(op);
    prev = engine.AddChainTask(resource, duration, prev, priority);
    if (record) {
      ctx->op_tasks.push_back({i, k, resource, prev});
    }
    if (host_copies && op.task == ActionTask::kDecompress && op.device == Device::kCpu) {
      prev = engine.AddChainTask(kIntraResource, cluster_.intra.TransferTime(domain_bytes),
                                 prev, priority);
      if (record) {
        ctx->op_tasks.push_back({i, kHostCopyOp, kIntraResource, prev});
      }
    }
  }
}

double TimelineEvaluator::CompleteSchedule(std::vector<RawEntry>* raw,
                                           EvalContext* ctx) const {
  simulations_.fetch_add(1, std::memory_order_relaxed);
  obs::GlobalMetrics().Add(SimulationsCounter());
  ctx->engine.Run();
  if (raw != nullptr) {
    CollectRaw(*ctx, raw);
  }
  return ctx->engine.Makespan();
}

void TimelineEvaluator::CollectRaw(const EvalContext& ctx, std::vector<RawEntry>* raw) const {
  const SimEngine& engine = ctx.engine;
  const size_t n = model_.tensors.size();
  raw->clear();
  raw->reserve(n + ctx.op_tasks.size());
  for (size_t i = 0; i < n; ++i) {
    raw->push_back(RawEntry{i, kComputeOp, kGpuResource, engine.TaskStart(ComputeTask(i)),
                            engine.TaskEnd(ComputeTask(i))});
  }
  for (const OpTaskRec& ot : ctx.op_tasks) {
    raw->push_back(RawEntry{ot.tensor, ot.op_index, ot.resource, engine.TaskStart(ot.task),
                            engine.TaskEnd(ot.task)});
  }
}

#ifdef ESPRESSO_VERIFY_SCHEDULES
void TimelineEvaluator::VerifySchedule(const Strategy& simulated,
                                       const std::vector<RawEntry>* raw,
                                       const EvalContext& ctx) const {
  // Verification build: every simulated timeline — full runs and checkpoint resumes,
  // the decision algorithm's hot loop included, from serial and parallel scoring
  // workers alike — must satisfy the scheduling invariants. Cache hits in the selector
  // never reach this point; they return a previously verified F(S) without
  // re-simulating (see docs/PERFORMANCE.md).
  std::vector<RawEntry> collected;
  if (raw == nullptr) {
    CollectRaw(ctx, &collected);
    raw = &collected;
  }
  VerifierConfig verifier_config;
  verifier_config.cpu_workers = cluster_.cpu_workers_per_gpu;
  const DiagnosticReport report =
      VerifySimulatedTimeline(simulated, ToEntries(simulated, *raw), verifier_config);
  ESP_CHECK(!report.HasErrors()) << "schedule verification failed:\n" << report.ToString();
}
#endif

double TimelineEvaluator::RunRaw(const OptionView& view, std::vector<RawEntry>* raw,
                                 EvalContext* ctx) const {
  const Strategy& strategy = *view.strategy;
  ESP_CHECK_EQ(strategy.options.size(), model_.tensors.size());
  const size_t n = model_.tensors.size();
  EvalContext local;
  if (ctx == nullptr) {
    ctx = &local;
  }
  StartSchedule(ctx);
  const bool record = kVerifySchedules || raw != nullptr;
  size_t task_estimate = n;
  for (size_t i = 0; i < n; ++i) {
    task_estimate += view.at(i).ops.size() + 2;
  }
  ctx->engine.ReserveTasks(task_estimate);
  if (record) {
    ctx->op_tasks.reserve(task_estimate - n);
  }
  for (size_t i = 0; i < n; ++i) {
    AppendTensorOps(i, view.at(i), record, ctx);
  }
  const double makespan = CompleteSchedule(raw, ctx);
#ifdef ESPRESSO_VERIFY_SCHEDULES
  // Overrides are materialized for the verifier's strategy-conformance audits.
  Strategy simulated = strategy;
  for (size_t i = 0; i < n; ++i) {
    if (const CompressionOption& effective = view.at(i); &effective != &strategy.options[i]) {
      simulated.options[i] = effective;
    }
  }
  VerifySchedule(simulated, raw, *ctx);
#endif
  return makespan;
}

double TimelineEvaluator::IterationTime(const Strategy& strategy) const {
  return IterationTime(strategy, nullptr);
}

double TimelineEvaluator::IterationTime(const Strategy& strategy, EvalContext* ctx) const {
  OptionView view;
  view.strategy = &strategy;
  return model_.forward_time_s + RunRaw(view, nullptr, ctx) + model_.optimizer_time_s;
}

void TimelineEvaluator::AdvanceCheckpoint(const Strategy& base, size_t index,
                                          Checkpoint* checkpoint) const {
  const size_t n = model_.tensors.size();
  ESP_CHECK_EQ(base.options.size(), n);
  ESP_CHECK_LT(index, n);
  Checkpoint& cp = *checkpoint;
  bool in_place = cp.owner_ == this && cp.scales_ == resource_scales_ && cp.index_ <= index;
  for (size_t t = 0; in_place && t < cp.index_; ++t) {
    in_place = cp.PrefixMatches(t, base.options[t]);
  }
  size_t from = cp.index_;
  if (!in_place) {
    StartSchedule(&cp.storage_);
    cp.owner_ = this;
    cp.scales_ = resource_scales_;
    cp.prefix_ops_.clear();
    cp.prefix_begin_.assign(1, 0);
    from = 0;
  }
  for (size_t t = from; t < index; ++t) {
    const std::vector<Op>& ops = base.options[t].ops;
    AppendTensorOps(t, base.options[t], kVerifySchedules, &cp.storage_);
    cp.prefix_ops_.insert(cp.prefix_ops_.end(), ops.begin(), ops.end());
    cp.prefix_begin_.push_back(cp.prefix_ops_.size());
  }
  cp.index_ = index;
  cp.storage_.engine.RunUntil(ComputeTask(index));
}

double TimelineEvaluator::ResumeWithOption(const Checkpoint& checkpoint,
                                           const Strategy& base,
                                           const CompressionOption& candidate,
                                           EvalContext* ctx) const {
  const size_t n = model_.tensors.size();
  ESP_CHECK_EQ(base.options.size(), n);
  ESP_CHECK(checkpoint.owner_ == this && checkpoint.scales_ == resource_scales_)
      << "checkpoint not advanced by this evaluator under its current resource scales";
  const size_t index = checkpoint.index_;
#ifdef ESPRESSO_VERIFY_SCHEDULES
  for (size_t t = 0; t < index; ++t) {
    ESP_CHECK(checkpoint.PrefixMatches(t, base.options[t]))
        << "checkpoint was built from another base (tensor " << t << ")";
  }
#endif
  EvalContext local;
  if (ctx == nullptr) {
    ctx = &local;
  }
  // Copy-assignment reuses the context's task, heap, and record storage.
  ctx->engine = checkpoint.storage_.engine;
  ctx->engine_ready = true;
  ctx->cpu_lanes = cluster_.cpu_workers_per_gpu;
  ctx->op_tasks = checkpoint.storage_.op_tasks;
  AppendTensorOps(index, candidate, kVerifySchedules, ctx);
  for (size_t t = index + 1; t < n; ++t) {
    AppendTensorOps(t, base.options[t], kVerifySchedules, ctx);
  }
  const double makespan = CompleteSchedule(nullptr, ctx);
#ifdef ESPRESSO_VERIFY_SCHEDULES
  Strategy simulated = base;
  simulated.options[index] = candidate;
  VerifySchedule(simulated, nullptr, *ctx);
#endif
  return model_.forward_time_s + makespan + model_.optimizer_time_s;
}

double TimelineEvaluator::ScoreWithOverrides(const Strategy& strategy,
                                             const CompressionOption* const* overrides,
                                             EvalContext* ctx) const {
  OptionView view;
  view.strategy = &strategy;
  view.table = overrides;
  return model_.forward_time_s + RunRaw(view, nullptr, ctx) + model_.optimizer_time_s;
}

std::vector<TimelineEntry> TimelineEvaluator::ToEntries(
    const Strategy& strategy, const std::vector<RawEntry>& raw) const {
  std::vector<TimelineEntry> entries;
  entries.reserve(raw.size());
  for (const RawEntry& e : raw) {
    TimelineEntry entry;
    entry.tensor = e.tensor;
    entry.resource = FixedResourceName(e.resource);
    entry.start = e.start;
    entry.end = e.end;
    if (e.op_index == kComputeOp) {
      entry.kind = "compute";
    } else if (e.op_index == kHostCopyOp) {
      entry.kind = "hostcopy";
    } else {
      const Op& op = strategy.options[e.tensor].ops[e.op_index];
      switch (op.task) {
        case ActionTask::kCompress:
          entry.kind = "compress";
          break;
        case ActionTask::kDecompress:
          entry.kind = "decompress";
          break;
        case ActionTask::kComm:
          entry.kind = RoutineName(op.routine);
          break;
      }
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

TimelineResult TimelineEvaluator::Evaluate(const Strategy& strategy,
                                           bool record_entries) const {
  obs::ScopedSpan span("timeline.evaluate", "timeline", EvaluateSecondsHistogram());
  TimelineResult result;
  OptionView view;
  view.strategy = &strategy;
  if (!record_entries) {
    result.makespan = RunRaw(view, nullptr, nullptr);
  } else {
    std::vector<RawEntry> raw;
    result.makespan = RunRaw(view, &raw, nullptr);
    result.entries = ToEntries(strategy, raw);
  }
  result.iteration_time = model_.forward_time_s + result.makespan + model_.optimizer_time_s;
  return result;
}

std::vector<bool> TimelineEvaluator::BeforeBubble(const Strategy& strategy,
                                                  EvalContext* ctx) const {
  EvalContext local;
  if (ctx == nullptr) {
    ctx = &local;
  }
  std::vector<RawEntry>& raw = ctx->raw_scratch;
  OptionView view;
  view.strategy = &strategy;
  RunRaw(view, &raw, ctx);
  const size_t n = model_.tensors.size();

  // Reconstruct per-tensor pipeline times from the deterministic entry layout: the
  // first n entries are the backward-compute intervals, followed by each tensor's ops
  // in pipeline order.
  std::vector<double> compute_end(n);
  std::vector<std::vector<const RawEntry*>> pipeline(n);
  for (size_t i = 0; i < n; ++i) {
    compute_end[i] = raw[i].end;
    pipeline[i].reserve(strategy.options[i].ops.size() + 2);
  }
  for (size_t e = n; e < raw.size(); ++e) {
    pipeline[raw[e].tensor].push_back(&raw[e]);
  }

  // True if op k of tensor t started the moment its pipeline became ready, tracing the
  // start-equals-predecessor-end chain all the way back to backward compute. If the
  // chain hits an op that waited in a resource queue, the gap in front of op k is
  // link-backlog latency, not a compute-gated bubble, and compressing earlier tensors
  // WOULD move it.
  auto compute_gated = [&](size_t t, size_t k) {
    for (size_t cur = k;; --cur) {
      const double pred_end = cur == 0 ? compute_end[t] : pipeline[t][cur - 1]->end;
      if (pipeline[t][cur]->start > pred_end + kChainEpsilon) {
        return false;  // queued on its resource
      }
      if (cur == 0) {
        return true;
      }
    }
  };

  // Per link: every comm interval with its pipeline position, sorted by start.
  struct Interval {
    double start, end;
    size_t tensor;
    size_t pipeline_index;
  };
  std::vector<Interval> per_link[2];  // 0 = intra, 1 = inter
  for (size_t t = 0; t < n; ++t) {
    for (size_t k = 0; k < pipeline[t].size(); ++k) {
      const RawEntry* e = pipeline[t][k];
      if (e->resource == kIntraResource) {
        per_link[0].push_back({e->start, e->end, t, k});
      } else if (e->resource == kInterResource) {
        per_link[1].push_back({e->start, e->end, t, k});
      }
    }
  }

  // For each link, merge the schedule into busy periods (idle gaps >= kBubbleEpsilon
  // separate them) and find when the LAST genuinely compute-gated busy period starts.
  // Communications that end before that point sit ahead of the link's final bubble:
  // compressing their tensors only widens the gap, because everything in the last busy
  // period is gated by compute readiness, not by the link (§4.4.2 Property 1, Fig 9(a)).
  double last_busy_start[2] = {-1.0, -1.0};
  bool link_has_bubble[2] = {false, false};
  for (int l = 0; l < 2; ++l) {
    auto& intervals = per_link[l];
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    double frontier = -1.0;
    double candidate_start = -1.0;
    for (const auto& iv : intervals) {
      if (frontier < 0.0) {
        candidate_start = iv.start;
      } else if (iv.start > frontier + kBubbleEpsilon) {
        // Idle gap. It is a genuine bubble only if the op after it was waiting for
        // tensor computation, not for another resource's backlog.
        if (compute_gated(iv.tensor, iv.pipeline_index)) {
          link_has_bubble[l] = true;
          last_busy_start[l] = iv.start;
        }
      }
      frontier = std::max(frontier, iv.end);
    }
    if (!link_has_bubble[l]) {
      last_busy_start[l] = candidate_start;
    }
  }

  // A tensor is "before bubbles" if every link it communicates on has at least one
  // bubble and all of its intervals there end before the last busy period begins.
  std::vector<bool> before(n, false);
  std::vector<bool> uses_link(n * 2, false);
  std::vector<bool> in_last_period(n * 2, false);
  for (int l = 0; l < 2; ++l) {
    for (const auto& iv : per_link[l]) {
      uses_link[iv.tensor * 2 + l] = true;
      if (!link_has_bubble[l] || iv.end > last_busy_start[l] - kBubbleEpsilon) {
        in_last_period[iv.tensor * 2 + l] = true;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    bool uses_any = false;
    bool all_before = true;
    for (int l = 0; l < 2; ++l) {
      if (uses_link[i * 2 + l]) {
        uses_any = true;
        if (in_last_period[i * 2 + l]) {
          all_before = false;
        }
      }
    }
    before[i] = uses_any && all_before;
  }
  return before;
}

}  // namespace espresso
