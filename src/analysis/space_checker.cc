#include "src/analysis/space_checker.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/analysis/ir_validator.h"
#include "src/analysis/strategy_linter.h"
#include "src/core/decision_tree.h"
#include "src/core/eval_cache.h"
#include "src/core/option_mutations.h"
#include "src/core/strategy.h"
#include "src/core/strategy_ir.h"
#include "src/core/timeline.h"
#include "src/costmodel/collective_formulas.h"
#include "src/costmodel/interval.h"
#include "src/util/rng.h"

namespace espresso {

namespace {

// Relative slack for point comparisons that should agree to rounding error
// (containment of a concrete evaluation in its own interval, payload <= domain).
constexpr double kPointEps = 1e-9;

// Completeness violations can be systematic (one bad edit class fires once per option);
// past this many the report stops itemizing and summarizes.
constexpr size_t kMaxIncompleteErrors = 20;

// Exhaustive device-choice fingerprinting is exponential in the option's non-comm slot
// count; options are tiny (<= ~6 slots) but guard anyway.
constexpr size_t kMaxExhaustiveSlots = 12;

// Parameter spans for the symbolic audit: bandwidth in [nominal/span, nominal*span],
// latency likewise (src/costmodel/interval.h).
constexpr double kBandwidthSpan = 4.0;
constexpr double kLatencySpan = 4.0;

// Relative tolerance for the whole-strategy F(S) properties (monotonicity,
// ub-dominance). The timeline engine is a greedy list scheduler, so Graham-style
// anomalies are expected: removing cost (or raising bandwidth) can reorder the
// schedule and lengthen the makespan slightly. Observed anomalies reach ~0.7%
// across the config sweep; violations beyond this slack are real.
constexpr double kFsTolerance = 0.02;

// Differential pass: number of seeded random mixed strategies, and the seed stream.
constexpr size_t kCorpusStrategies = 4;
constexpr uint64_t kCorpusSeed = 0x5ca1ab1eULL;

std::string FirstErrorMessage(const DiagnosticReport& report) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity == Severity::kError) {
      return std::string(d.rule) + ": " + d.message;
    }
  }
  return "(no error recorded)";
}

// Indices of the ops carrying a §4.2 device choice (compress/decompress).
std::vector<size_t> NonCommSlots(const CompressionOption& option) {
  std::vector<size_t> slots;
  for (size_t i = 0; i < option.ops.size(); ++i) {
    if (option.ops[i].task != ActionTask::kComm) {
      slots.push_back(i);
    }
  }
  return slots;
}

// Registry for the splitmix64 collision audit: same fingerprint + different ops is a
// collision (labels are excluded from both the fingerprint and operator==).
class FingerprintRegistry {
 public:
  explicit FingerprintRegistry(SpaceCheckResult* out) : out_(out) {}

  void Add(const CompressionOption& option) {
    ++out_->stats.fingerprints_audited;
    const uint64_t fp = OptionFingerprint(option);
    auto [it, inserted] = seen_.emplace(fp, option);
    if (!inserted && !(it->second == option)) {
      ++out_->stats.fingerprint_collisions;
      out_->report.AddError(
          rules::kEscFingerprintCollision, Diagnostic::kStrategyScope,
          "fingerprint collision at " + DigestHex(fp) + ": '" + option.Describe() +
              "' vs '" + it->second.Describe() + "'",
          "strengthen OptionFingerprint's mixing in src/core/eval_cache.cc");
    }
  }

 private:
  SpaceCheckResult* out_;
  std::unordered_map<uint64_t, CompressionOption> seen_;
};

// ---------------------------------------------------------------------------
// Pass 1: space soundness / completeness / fingerprints.
// ---------------------------------------------------------------------------

void RunSpacePass(const TreeConfig& tree, const SpaceCheckOptions& options,
                  SpaceCheckResult* out) {
  OptionSpace space = EnumerateOptions(tree);
  out->stats.device_choices = space.TotalWithDeviceChoices();

  if (options.inject == SpaceCheckInject::kMissingOption) {
    // Delete the default option's enumerated twin: the membership check below must
    // notice the hole and report esc.space-incomplete.
    const CompressionOption target = CanonicalOption(DefaultUncompressedOption(tree));
    auto it = std::find_if(space.options.begin(), space.options.end(),
                           [&](const CompressionOption& o) {
                             return CanonicalOption(o) == target;
                           });
    if (it != space.options.end()) {
      space.options.erase(it);
    } else if (!space.options.empty()) {
      space.options.pop_back();
    }
  }
  out->stats.options = space.options.size();

  FingerprintRegistry registry(out);

  // Soundness + canonical membership index + device-variant fingerprints.
  std::unordered_map<uint64_t, size_t> canonical_index;  // canonical fp -> option index
  std::vector<CompressionOption> canonical;
  canonical.reserve(space.options.size());
  for (size_t i = 0; i < space.options.size(); ++i) {
    const CompressionOption& option = space.options[i];

    DiagnosticReport lint = LintOption(tree, option, i);
    if (lint.HasErrors()) {
      out->report.AddError(
          rules::kEscSpaceUnsound, i,
          "enumerated option '" + option.label +
              "' fails the linter: " + FirstErrorMessage(lint),
          "the decision tree (src/core/decision_tree.cc) and the linter "
          "(src/analysis/strategy_linter.cc) disagree about §4.2 legality");
    }
    if (!ValidateOption(tree, option)) {
      out->report.AddError(rules::kEscSpaceUnsound, i,
                           "enumerated option '" + option.label +
                               "' fails ValidateOption against its own tree config");
    }
    const CompressionOption cpu_variant = option.WithDevice(Device::kCpu);
    if (LintOption(tree, cpu_variant, i).HasErrors()) {
      out->report.AddError(rules::kEscSpaceUnsound, i,
                           "all-CPU device variant of '" + option.label +
                               "' fails the linter (device choices must be "
                               "legality-neutral, §4.2)");
    }

    CompressionOption canon = CanonicalOption(option);
    if (LintOption(tree, canon, i).HasErrors()) {
      out->report.AddError(rules::kEscSpaceUnsound, i,
                           "canonical form of '" + option.label +
                               "' fails the linter (the membership projection must "
                               "preserve legality)");
    }
    const uint64_t canon_fp = OptionFingerprint(canon);
    auto [it, inserted] = canonical_index.emplace(canon_fp, i);
    if (!inserted && !(canonical[it->second] == canon)) {
      ++out->stats.fingerprint_collisions;
      out->report.AddError(rules::kEscFingerprintCollision, i,
                           "canonical fingerprint collision at " + DigestHex(canon_fp) +
                               ": '" + option.label + "' vs '" +
                               space.options[it->second].label + "'");
    }
    canonical.push_back(std::move(canon));

    // Fingerprint audit over the option's full 2^slots device-choice family.
    const std::vector<size_t> slots = NonCommSlots(option);
    if (slots.size() <= kMaxExhaustiveSlots) {
      for (size_t mask = 0; mask < (size_t{1} << slots.size()); ++mask) {
        CompressionOption variant = option;
        for (size_t bit = 0; bit < slots.size(); ++bit) {
          if (mask & (size_t{1} << bit)) {
            variant.ops[slots[bit]].device = Device::kCpu;
          }
        }
        registry.Add(variant);
      }
    } else {
      registry.Add(option);
      registry.Add(cpu_variant);
      out->report.AddNote(rules::kEscFingerprintCollision, i,
                          "option '" + option.label + "' has " +
                              std::to_string(slots.size()) +
                              " device slots; audited only the all-GPU and all-CPU "
                              "corners of its 2^slots family");
    }
  }

  // Membership of an option in the enumerated set, modulo canonicalization.
  auto in_space = [&](const CompressionOption& option) {
    const CompressionOption canon = CanonicalOption(option);
    const auto it = canonical_index.find(OptionFingerprint(canon));
    return it != canonical_index.end() && canonical[it->second] == canon;
  };

  // Completeness: every legal one-edit mutant must already be in the space.
  size_t incomplete_errors = 0;
  for (size_t i = 0; i < space.options.size(); ++i) {
    const CompressionOption& option = space.options[i];
    const std::vector<OptionMutation> mutants = OneEditMutations(option);
    out->stats.mutants_total += mutants.size();
    for (const OptionMutation& m : mutants) {
      if (LintOption(tree, m.option, i).HasErrors()) {
        ++out->stats.mutants_rejected;
        continue;
      }
      if (in_space(m.option)) {
        ++out->stats.mutants_reenumerated;
        // A legal mutant's canonical form participates in the collision audit too.
        registry.Add(CanonicalOption(m.option));
        continue;
      }
      if (++incomplete_errors <= kMaxIncompleteErrors) {
        out->report.AddError(
            rules::kEscSpaceIncomplete, i,
            "linter-legal option one edit outside the enumerated space: '" +
                option.label + "' with " + m.edit,
            "either EnumerateOptions misses a legal path or the linter under-rejects");
      }
    }
  }
  if (incomplete_errors > kMaxIncompleteErrors) {
    out->report.AddNote(rules::kEscSpaceIncomplete, Diagnostic::kStrategyScope,
                        std::to_string(incomplete_errors - kMaxIncompleteErrors) +
                            " further esc.space-incomplete findings suppressed");
  }

  // The selector's inputs must live inside the space it was proved over.
  auto check_membership = [&](const CompressionOption& option, const std::string& what) {
    if (!in_space(option)) {
      out->report.AddError(rules::kEscSpaceIncomplete, Diagnostic::kStrategyScope,
                           what + " '" + option.label +
                               "' does not canonicalize into the enumerated space",
                           "EnumerateOptions disagrees with the selector's seed set");
    }
  };
  check_membership(DefaultUncompressedOption(tree), "default uncompressed option");
  for (const CompressionOption& candidate : CandidateOptions(tree)) {
    check_membership(candidate, "selector candidate");
  }
}

// ---------------------------------------------------------------------------
// Pass 2: symbolic cost audit.
// ---------------------------------------------------------------------------

// Interval twin of TimelineEvaluator::OpDuration: the same formulas over the declared
// parameter ranges instead of the calibrated points.
Interval IntervalOpDuration(const IntervalCostModel& cost, const ClusterSpec& cluster,
                            const Compressor& compressor, const Op& op, size_t elements) {
  const double domain_elements = op.domain_fraction * static_cast<double>(elements);
  const double domain_bytes = domain_elements * sizeof(float);
  const double payload_elements = op.payload_fraction * static_cast<double>(elements);
  const double machine_boost = (op.machine_level && op.device == Device::kCpu)
                                   ? static_cast<double>(cluster.gpus_per_machine)
                                   : 1.0;
  switch (op.task) {
    case ActionTask::kCompress:
      return cost.CompressTime(op.device, domain_bytes) / Interval(machine_boost);
    case ActionTask::kDecompress: {
      const double payload_bytes = static_cast<double>(compressor.CompressedBytes(
          static_cast<size_t>(std::llround(payload_elements))));
      return cost.AggregateDecompressTime(op.device, domain_bytes, payload_bytes,
                                          op.fan_in) /
             Interval(machine_boost);
    }
    case ActionTask::kComm: {
      const IntervalLink* link = nullptr;
      size_t p = 1;
      switch (op.phase) {
        case CommPhase::kFlat:
          link = &cost.ranges().flat;
          p = cluster.total_gpus();
          break;
        case CommPhase::kIntraFirst:
        case CommPhase::kIntraSecond:
          link = &cost.ranges().intra;
          p = cluster.gpus_per_machine;
          break;
        case CommPhase::kInter:
          link = &cost.ranges().inter;
          p = cluster.machines;
          break;
      }
      const Interval payload_bytes =
          op.compressed ? Interval(static_cast<double>(compressor.CompressedBytes(
                              static_cast<size_t>(std::llround(payload_elements)))))
                        : Interval(payload_elements * sizeof(float));
      switch (op.routine) {
        case Routine::kAllreduce:
          return formulas::Allreduce<Interval>(p, Interval(domain_bytes), *link);
        case Routine::kReduceScatter:
          return formulas::ReduceScatter<Interval>(p, Interval(domain_bytes), *link);
        case Routine::kAllgather:
          return formulas::Allgather<Interval>(p, payload_bytes, *link);
        case Routine::kReduce:
          return formulas::Reduce<Interval>(p, Interval(domain_bytes), *link);
        case Routine::kBroadcast:
          return formulas::Broadcast<Interval>(p, payload_bytes, *link);
        case Routine::kAlltoall:
          return formulas::Alltoall<Interval>(p, payload_bytes, *link);
        case Routine::kGather:
          return formulas::Gather<Interval>(p, payload_bytes, *link);
        case Routine::kNone:
          return Interval(0.0);
      }
      return Interval(0.0);
    }
  }
  return Interval(0.0);
}

// Smallest / median / largest distinct tensor sizes: the interval properties are
// affine-ish in size, so the extremes plus one interior point cover the family.
std::vector<size_t> SampleSizes(const ModelProfile& model) {
  std::vector<size_t> sizes;
  sizes.reserve(model.tensors.size());
  for (const TensorSpec& tensor : model.tensors) {
    sizes.push_back(tensor.elements);
  }
  std::sort(sizes.begin(), sizes.end());
  std::vector<size_t> picked = {sizes.front(), sizes[sizes.size() / 2], sizes.back()};
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

void RunCostPass(const TreeConfig& tree, const ModelProfile& model,
                 const ClusterSpec& cluster, const Compressor& compressor,
                 const SpaceCheckOptions& options, SpaceCheckResult* out) {
  const OptionSpace space = EnumerateOptions(tree);
  ParameterRanges ranges = ParameterRanges::ForCluster(cluster, kBandwidthSpan, kLatencySpan);
  if (options.inject == SpaceCheckInject::kCostNegative) {
    // A physically impossible declaration: launch overhead dipping below zero. The
    // non-negativity property must notice.
    ranges.gpu_launch_s = Interval(-1e-3, ranges.gpu_launch_s.hi);
  }
  const CompressionCostModel concrete_cost =
      MakeCompressionCostModel(cluster, compressor.name());
  const IntervalCostModel cost(ranges, concrete_cost.algorithm_weight(Device::kGpu),
                               concrete_cost.algorithm_weight(Device::kCpu));
  const TimelineEvaluator nominal(model, cluster, compressor);
  const std::vector<size_t> sizes = SampleSizes(model);

  // Per-op properties: non-negativity, containment of the concrete evaluation, payload
  // conservation — for every op of every option at every sampled size, on both devices.
  for (size_t i = 0; i < space.options.size(); ++i) {
    const CompressionOption& option = space.options[i];
    for (size_t oi = 0; oi < option.ops.size(); ++oi) {
      const Op& base_op = option.ops[oi];
      if (base_op.payload_fraction >
          base_op.domain_fraction * (1.0 + kPointEps) + kPointEps) {
        out->report.AddError(rules::kEscIntervalProperty, i,
                             "op " + std::to_string(oi) + " of '" + option.label +
                                 "' moves a payload fraction larger than its domain "
                                 "fraction (bytes conservation)");
      }
      std::vector<Op> op_variants = {base_op};
      if (base_op.task != ActionTask::kComm) {
        Op cpu_op = base_op;
        cpu_op.device = Device::kCpu;
        op_variants.push_back(cpu_op);
      }
      for (const Op& op : op_variants) {
        for (size_t elements : sizes) {
          ++out->stats.interval_checks;
          const Interval bound = IntervalOpDuration(cost, cluster, compressor, op, elements);
          if (!bound.NonNegative()) {
            out->report.AddError(
                rules::kEscIntervalProperty, i,
                "op " + std::to_string(oi) + " of '" + option.label + "' at " +
                    std::to_string(elements) + " elements admits a negative duration [" +
                    std::to_string(bound.lo) + ", " + std::to_string(bound.hi) +
                    "]s over the declared parameter ranges",
                "a cost formula subtracts or a declared range is unphysical");
            continue;
          }
          const double concrete = nominal.OpDuration(op, elements);
          const double slack = kPointEps * std::max(1.0, std::abs(concrete));
          if (concrete < bound.lo - slack || concrete > bound.hi + slack) {
            out->report.AddError(
                rules::kEscIntervalProperty, i,
                "op " + std::to_string(oi) + " of '" + option.label + "' at " +
                    std::to_string(elements) + " elements prices to " +
                    std::to_string(concrete) + "s outside its symbolic bound [" +
                    std::to_string(bound.lo) + ", " + std::to_string(bound.hi) + "]s",
                "the interval twin drifted from TimelineEvaluator::OpDuration");
          }
        }
      }
    }
  }

  // Compressor byte-conservation: compressed payloads are monotone in input size and
  // never exceed the raw encoding at the model's tensor sizes.
  size_t prev_bytes = 0;
  for (size_t k = 0; k < sizes.size(); ++k) {
    ++out->stats.interval_checks;
    const size_t bytes = compressor.CompressedBytes(sizes[k]);
    if (k > 0 && bytes < prev_bytes) {
      out->report.AddError(rules::kEscIntervalProperty, Diagnostic::kStrategyScope,
                           "CompressedBytes is not monotone: " +
                               std::to_string(sizes[k - 1]) + " -> " +
                               std::to_string(prev_bytes) + "B but " +
                               std::to_string(sizes[k]) + " -> " +
                               std::to_string(bytes) + "B");
    }
    if (bytes > sizes[k] * sizeof(float)) {
      out->report.AddError(rules::kEscIntervalProperty, Diagnostic::kStrategyScope,
                           "CompressedBytes inflates a tensor: " + std::to_string(sizes[k]) +
                               " elements (" + std::to_string(sizes[k] * sizeof(float)) +
                               "B raw) compress to " + std::to_string(bytes) + "B");
    }
    prev_bytes = bytes;
  }

  // Whole-strategy properties per option: F(S) finite and positive, non-increasing in
  // link bandwidth, and never beaten by its own Upper Bound pricing (§5.1).
  const TimelineEvaluator ub(model, cluster, compressor, /*zero_compression_cost=*/true);
  ClusterSpec slow = cluster;
  slow.intra.bytes_per_second *= 0.5;
  slow.inter.bytes_per_second *= 0.5;
  ClusterSpec fast = cluster;
  fast.intra.bytes_per_second *= 2.0;
  fast.inter.bytes_per_second *= 2.0;
  const TimelineEvaluator slow_eval(model, slow, compressor);
  const TimelineEvaluator fast_eval(model, fast, compressor);
  const size_t n = model.tensors.size();
  for (size_t i = 0; i < space.options.size(); ++i) {
    const CompressionOption& option = space.options[i];
    const Strategy strategy = UniformStrategy(n, option);
    const double fs = nominal.IterationTime(strategy);
    ++out->stats.monotonicity_checks;
    if (!std::isfinite(fs) || fs <= 0.0) {
      out->report.AddError(rules::kEscIntervalProperty, i,
                           "F(S) of uniform '" + option.label + "' is " +
                               std::to_string(fs) + "s (must be finite and positive)");
      continue;
    }
    const double fs_slow = slow_eval.IterationTime(strategy);
    const double fs_fast = fast_eval.IterationTime(strategy);
    if (fs > fs_slow * (1.0 + kFsTolerance) || fs_fast > fs * (1.0 + kFsTolerance)) {
      out->report.AddError(
          rules::kEscIntervalProperty, i,
          "F(S) of uniform '" + option.label +
              "' is not monotone in link bandwidth: x0.5 -> " + std::to_string(fs_slow) +
              "s, x1 -> " + std::to_string(fs) + "s, x2 -> " + std::to_string(fs_fast) +
              "s",
          "faster links must never lengthen the simulated iteration");
    }
    const double fs_ub = ub.IterationTime(strategy);
    if (fs_ub > fs * (1.0 + kFsTolerance)) {
      out->report.AddError(rules::kEscIntervalProperty, i,
                           "Upper Bound dominance violated for uniform '" + option.label +
                               "': free compression prices to " + std::to_string(fs_ub) +
                               "s vs " + std::to_string(fs) + "s with real costs");
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 3: differential validation (linter vs IR admission pipeline).
// ---------------------------------------------------------------------------

struct CorpusEntry {
  std::string name;
  std::string text;
  const char* expect;  // "accept" | "reject" | "parse-error"
};

void RunDifferentialPass(const TreeConfig& tree, const ModelProfile& model,
                         const ClusterSpec& cluster, const Compressor& compressor,
                         const CompressorConfig& compressor_config,
                         size_t max_compress_ops, const SpaceCheckOptions& options,
                         SpaceCheckResult* out) {
  const OptionSpace space = EnumerateOptions(tree);
  if (space.options.empty()) {
    return;
  }
  const size_t n = model.tensors.size();
  const TimelineEvaluator evaluator(model, cluster, compressor);
  LintOptions lint_options;
  lint_options.expected_tensors = n;
  std::vector<CorpusEntry> corpus;

  // Round-trips one strategy through the IR writer and compares the two admission
  // paths' verdicts. `flip_lint` is the validator-split self-test injection.
  auto differential = [&](const std::string& name, const Strategy& strategy,
                          bool flip_lint) {
    const bool lint_accepts = !LintStrategy(tree, strategy, lint_options).HasErrors();
    // Illegal strategies price as garbage; compile those with a zero score (score
    // drift is a warning by design, so the verdict comparison is unaffected).
    const double fs = lint_accepts ? evaluator.IterationTime(strategy) : 0.0;
    StrategyProvenance provenance;
    provenance.origin = "espresso_check";
    provenance.selector = "space-checker";
    const StrategyIR ir = CompileStrategyIR(strategy, fs, model, cluster,
                                            compressor_config, std::move(provenance));
    const std::string text = StrategyIRToString(ir);
    const bool lint_verdict = flip_lint ? !lint_accepts : lint_accepts;
    const StrategyIRParseResult parsed = ParseStrategyIR(text);
    if (!parsed.ok) {
      // A corrupted strategy may already be unserializable (the strict grammar refuses
      // zeroed fractions, and non-canonical fields break the strategy fingerprint).
      // Parse-time refusal is the admission pipeline rejecting even earlier than the
      // linter — agreement, as long as the linter rejects too.
      if (lint_verdict) {
        out->report.AddError(rules::kEscValidatorSplit, Diagnostic::kStrategyScope,
                             "linter-clean strategy '" + name +
                                 "' fails the IR parser: " + parsed.error,
                             "the writer must round-trip every legal strategy");
      }
      corpus.push_back({name, text, "parse-error"});
      return;
    }
    IRValidationOptions validate;
    validate.max_compress_ops = max_compress_ops;
    const bool validator_admits =
        ValidateStrategyIR(parsed.ir, model, cluster, compressor, compressor_config,
                           validate)
            .ok;
    if (lint_verdict != validator_admits) {
      out->report.AddError(
          rules::kEscValidatorSplit, Diagnostic::kStrategyScope,
          "admission verdicts diverge on '" + name + "': StrategyLinter says " +
              (lint_verdict ? "accept" : "reject") + ", ValidateStrategyIR says " +
              (validator_admits ? "accept" : "reject"),
          "the two validators must agree on every document "
          "(docs/DEPLOYMENT.md fail-closed contract)");
    }
    corpus.push_back({name, text, validator_admits ? "accept" : "reject"});
  };

  // Valid corpus: the selector's seeds plus seeded random mixes of enumerated options.
  std::vector<std::pair<std::string, Strategy>> valids;
  valids.emplace_back("uniform-default",
                      UniformStrategy(n, DefaultUncompressedOption(tree)));
  const std::vector<CompressionOption> candidates = CandidateOptions(tree);
  for (size_t c = 0; c < candidates.size() && c < 3; ++c) {
    valids.emplace_back("uniform-candidate-" + std::to_string(c),
                        UniformStrategy(n, candidates[c]));
  }
  for (size_t k = 0; k < kCorpusStrategies; ++k) {
    Rng rng(DeriveSeed(kCorpusSeed, k));
    Strategy mixed;
    mixed.options.reserve(n);
    for (size_t t = 0; t < n; ++t) {
      mixed.options.push_back(space.options[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(space.options.size()) - 1))]);
    }
    valids.emplace_back("mixed-" + std::to_string(k), std::move(mixed));
  }
  for (size_t v = 0; v < valids.size(); ++v) {
    ++out->stats.differential_valid;
    differential(valids[v].first, valids[v].second,
                 v == 0 && options.inject == SpaceCheckInject::kValidatorSplit);
  }

  // Corrupted corpus: one-edit mutations of random tensors of each valid strategy.
  constexpr size_t kCorruptionsPerValid = 2;
  for (size_t v = 0; v < valids.size(); ++v) {
    Rng rng(DeriveSeed(kCorpusSeed, 1000 + v));
    for (size_t j = 0; j < kCorruptionsPerValid; ++j) {
      const size_t tensor =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      const std::vector<OptionMutation> mutants =
          OneEditMutations(valids[v].second.options[tensor]);
      if (mutants.empty()) {
        continue;
      }
      const OptionMutation& mutation = mutants[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutants.size()) - 1))];
      Strategy corrupted = valids[v].second;
      corrupted.options[tensor] = mutation.option;
      ++out->stats.differential_corrupted;
      differential(valids[v].first + "-corrupt-" + std::to_string(j), corrupted,
                   /*flip_lint=*/false);
    }
  }

  // Byte-tampered corpus: semantic-field or structural damage to a valid document must
  // be caught at parse time (the payload digest / strict grammar), never admitted.
  if (!corpus.empty()) {
    const std::string& base = corpus.front().text;
    std::vector<std::pair<std::string, std::string>> tampered;
    const size_t digest_pos = base.find("\"payload_digest\"");
    if (digest_pos != std::string::npos) {
      std::string flipped = base;
      const size_t value_pos = flipped.find('"', digest_pos + 16);
      if (value_pos != std::string::npos && value_pos + 1 < flipped.size()) {
        char& c = flipped[value_pos + 1];
        c = (c == '0') ? '1' : '0';
        tampered.emplace_back("tamper-digest", std::move(flipped));
      }
    }
    tampered.emplace_back("tamper-truncate", base.substr(0, base.size() / 2));
    std::string renamed = base;
    const size_t fs_pos = renamed.find("\"fs_score\"");
    if (fs_pos != std::string::npos) {
      renamed.replace(fs_pos, 10, "\"fs_scorz\"");
      tampered.emplace_back("tamper-field", std::move(renamed));
    }
    for (auto& [name, text] : tampered) {
      ++out->stats.differential_tampered;
      const StrategyIRParseResult parsed = ParseStrategyIR(text);
      if (parsed.ok) {
        out->report.AddError(rules::kEscValidatorSplit, Diagnostic::kStrategyScope,
                             "tampered document '" + name +
                                 "' parses cleanly (digest/grammar failed to catch it)");
        corpus.push_back({name, text, "accept"});
      } else {
        corpus.push_back({name, std::move(text), "parse-error"});
      }
    }
  }

  if (!options.emit_corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.emit_corpus_dir, ec);
    if (ec) {
      out->report.AddError(rules::kEscValidatorSplit, Diagnostic::kStrategyScope,
                           "cannot create corpus directory " + options.emit_corpus_dir +
                               ": " + ec.message());
      return;
    }
    // Every write is checked: a file that cannot be written (a directory in its way, a
    // full disk) is an error, and only files that reached the disk are counted and
    // listed in the manifest.
    auto write_file = [&](const std::string& filename, const std::string& text) {
      const std::string path = options.emit_corpus_dir + "/" + filename;
      std::ofstream file(path);
      file << text;
      file.close();
      if (!file) {
        out->report.AddError(rules::kEscValidatorSplit, Diagnostic::kStrategyScope,
                             "cannot write corpus file " + path);
        return false;
      }
      ++out->stats.corpus_files_written;
      return true;
    };
    std::string manifest = "file\texpect\n";
    for (const CorpusEntry& entry : corpus) {
      const std::string filename = entry.name + ".ir.json";
      if (write_file(filename, entry.text)) {
        manifest += filename + '\t' + entry.expect + '\n';
      }
    }
    write_file("MANIFEST.tsv", manifest);
  }
}

}  // namespace

SpaceCheckResult CheckStrategySpace(const ModelProfile& model, const ClusterSpec& cluster,
                                    const Compressor& compressor,
                                    const CompressorConfig& compressor_config,
                                    size_t max_compress_ops,
                                    const SpaceCheckOptions& options) {
  SpaceCheckResult result;
  const TreeConfig tree{cluster.machines, cluster.gpus_per_machine,
                        compressor.SupportsCompressedAggregation(), max_compress_ops};
  RunSpacePass(tree, options, &result);
  RunCostPass(tree, model, cluster, compressor, options, &result);
  RunDifferentialPass(tree, model, cluster, compressor, compressor_config, max_compress_ops,
                      options, &result);
  return result;
}

}  // namespace espresso
