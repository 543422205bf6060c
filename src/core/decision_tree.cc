#include "src/core/decision_tree.h"

#include <algorithm>
#include <string>

#include "src/util/checked_math.h"
#include "src/util/logging.h"

namespace espresso {

namespace {

Op CommOp(CommPhase phase, Routine routine, double domain, double payload, bool compressed) {
  Op op;
  op.task = ActionTask::kComm;
  op.phase = phase;
  op.routine = routine;
  op.domain_fraction = domain;
  op.payload_fraction = payload;
  op.compressed = compressed;
  return op;
}

Op CompOp(CommPhase phase, double domain) {
  Op op;
  op.task = ActionTask::kCompress;
  op.phase = phase;
  op.domain_fraction = domain;
  op.payload_fraction = domain;
  return op;
}

Op DecompOp(CommPhase phase, double domain, size_t fan_in, double payload) {
  Op op;
  op.task = ActionTask::kDecompress;
  op.phase = phase;
  op.domain_fraction = domain;
  op.fan_in = fan_in;
  op.payload_fraction = payload;
  return op;
}

// A partially built path plus the payload state it leaves behind.
struct Path {
  std::vector<Op> ops;
  bool compressed = false;  // payload currently compressed
  std::string label;

  Path Extend(std::vector<Op> more, bool compressed_after, const std::string& tag) const {
    Path next = *this;
    for (auto& op : more) {
      next.ops.push_back(op);
    }
    next.compressed = compressed_after;
    if (!tag.empty()) {
      next.label += next.label.empty() ? tag : "|" + tag;
    }
    return next;
  }
};

CompressionOption Finish(const Path& path, bool flat) {
  CompressionOption option;
  option.ops = path.ops;
  option.flat = flat;
  option.label = (flat ? "flat[" : "hier[") + path.label + "]";
  return option;
}

// ---------------------------------------------------------------------------
// Flat communication: a single phase over all machines*gpus ranks.
// ---------------------------------------------------------------------------
void EnumerateFlat(const TreeConfig& config, std::vector<CompressionOption>* out) {
  const auto p = static_cast<double>(config.machines * config.gpus_per_machine);
  const CommPhase ph = CommPhase::kFlat;
  const size_t fan = config.machines * config.gpus_per_machine;

  // Uncompressed.
  out->push_back(Finish(Path{}.Extend({CommOp(ph, Routine::kAllreduce, 1.0, 1.0, false)},
                                      false, "ar"),
                        true));
  out->push_back(Finish(Path{}.Extend({CommOp(ph, Routine::kReduceScatter, 1.0, 1.0, false),
                                       CommOp(ph, Routine::kAllgather, 1.0, 1.0 / p, false)},
                                      false, "rs+ag"),
                        true));
  out->push_back(Finish(Path{}.Extend({CommOp(ph, Routine::kReduce, 1.0, 1.0, false),
                                       CommOp(ph, Routine::kBroadcast, 1.0, 1.0, false)},
                                      false, "red+bc"),
                        true));

  // Compressed, indivisible: comp -> allgather_c -> decompress(all payloads).
  out->push_back(Finish(
      Path{}.Extend({CompOp(ph, 1.0), CommOp(ph, Routine::kAllgather, 1.0, 1.0, true),
                     DecompOp(ph, 1.0, fan, 1.0)},
                    false, "comp+agc+dec"),
      true));
  if (config.supports_compressed_aggregation) {
    // Compressed-domain aggregation after the allgather: one decompression.
    out->push_back(Finish(
        Path{}.Extend({CompOp(ph, 1.0), CommOp(ph, Routine::kAllgather, 1.0, 1.0, true),
                       DecompOp(ph, 1.0, 1, 1.0)},
                      false, "comp+agc+aggc"),
        true));
  }

  // Compressed, divisible (alltoall | allgather): comp -> alltoall_c ->
  // [decomp+agg+comp | skip] -> allgather_c -> decomp.
  {
    Path head = Path{}.Extend({CompOp(ph, 1.0),
                               CommOp(ph, Routine::kAlltoall, 1.0, 1.0 / p, true)},
                              true, "comp+a2ac");
    out->push_back(Finish(
        head.Extend({DecompOp(ph, 1.0 / p, fan, 1.0 / p), CompOp(ph, 1.0 / p),
                     CommOp(ph, Routine::kAllgather, 1.0, 1.0 / p, true),
                     DecompOp(ph, 1.0, fan, 1.0 / p)},
                    false, "dec+comp+agc+dec"),
        true));
    // Decompress at the middle stage and finish with an uncompressed allgather.
    out->push_back(Finish(head.Extend({DecompOp(ph, 1.0 / p, fan, 1.0 / p),
                                       CommOp(ph, Routine::kAllgather, 1.0, 1.0 / p, false)},
                                      false, "dec+ag"),
                          true));
    if (config.supports_compressed_aggregation) {
      out->push_back(Finish(head.Extend({CommOp(ph, Routine::kAllgather, 1.0, 1.0 / p, true),
                                         DecompOp(ph, 1.0, fan, 1.0 / p)},
                                        false, "skip+agc+dec"),
                            true));
    }
  }

  // Compressed, divisible (gather | broadcast).
  {
    Path head = Path{}.Extend({CompOp(ph, 1.0), CommOp(ph, Routine::kGather, 1.0, 1.0, true)},
                              true, "comp+gc");
    out->push_back(Finish(head.Extend({DecompOp(ph, 1.0, fan, 1.0), CompOp(ph, 1.0),
                                       CommOp(ph, Routine::kBroadcast, 1.0, 1.0, true),
                                       DecompOp(ph, 1.0, 1, 1.0)},
                                      false, "dec+comp+bcc+dec"),
                          true));
    out->push_back(Finish(head.Extend({DecompOp(ph, 1.0, fan, 1.0),
                                       CommOp(ph, Routine::kBroadcast, 1.0, 1.0, false)},
                                      false, "dec+bc"),
                          true));
    if (config.supports_compressed_aggregation) {
      out->push_back(Finish(head.Extend({CommOp(ph, Routine::kBroadcast, 1.0, 1.0, true),
                                         DecompOp(ph, 1.0, 1, 1.0)},
                                        false, "skip+bcc+dec"),
                            true));
    }
  }
}

// ---------------------------------------------------------------------------
// Hierarchical communication: intra-first / inter / intra-second (Figure 1).
// ---------------------------------------------------------------------------

// Intra-1 outcome: topology of the data after the first intra step.
enum class Topology { kSharded, kRooted };

struct Intra1Variant {
  Path path;
  Topology topology;
  double inter_domain;  // tensor fraction each inter participant handles
};

std::vector<Intra1Variant> EnumerateIntra1(const TreeConfig& config) {
  const auto g = static_cast<double>(config.gpus_per_machine);
  const size_t gi = config.gpus_per_machine;
  const CommPhase ph = CommPhase::kIntraFirst;
  std::vector<Intra1Variant> variants;

  // Uncompressed divisible first steps.
  variants.push_back({Path{}.Extend({CommOp(ph, Routine::kReduceScatter, 1.0, 1.0, false)},
                                    false, "rs"),
                      Topology::kSharded, 1.0 / g});
  variants.push_back({Path{}.Extend({CommOp(ph, Routine::kReduce, 1.0, 1.0, false)}, false,
                                    "red"),
                      Topology::kRooted, 1.0});

  // Compressed first steps: compress the full tensor, shuffle compressed parts.
  {
    Path head = Path{}.Extend({CompOp(ph, 1.0),
                               CommOp(ph, Routine::kAlltoall, 1.0, 1.0 / g, true)},
                              true, "comp+a2ac");
    variants.push_back({head.Extend({DecompOp(ph, 1.0 / g, gi, 1.0 / g)}, false, "dec"),
                        Topology::kSharded, 1.0 / g});
    if (config.supports_compressed_aggregation) {
      variants.push_back({head.Extend({}, true, "skip"), Topology::kSharded, 1.0 / g});
    }
  }
  {
    Path head = Path{}.Extend({CompOp(ph, 1.0), CommOp(ph, Routine::kGather, 1.0, 1.0, true)},
                              true, "comp+gc");
    variants.push_back({head.Extend({DecompOp(ph, 1.0, gi, 1.0)}, false, "dec"),
                        Topology::kRooted, 1.0});
    if (config.supports_compressed_aggregation) {
      variants.push_back({head.Extend({}, true, "skip"), Topology::kRooted, 1.0});
    }
  }
  return variants;
}

// Inter-phase continuations from a given entry state over domain d.
struct InterVariant {
  Path path;       // ops appended after the entry path
  bool compressed; // exit payload state (single payload if compressed)
};

std::vector<InterVariant> EnumerateInter(const TreeConfig& config, bool entry_compressed,
                                         double d) {
  const auto m = static_cast<double>(config.machines);
  const size_t mi = config.machines;
  const CommPhase ph = CommPhase::kInter;
  std::vector<InterVariant> variants;

  if (!entry_compressed) {
    // Indivisible uncompressed: allreduce.
    variants.push_back({Path{}.Extend({CommOp(ph, Routine::kAllreduce, d, d, false)}, false,
                                      "ar"),
                        false});
    // Divisible uncompressed, optionally compressing between the two steps (T5).
    {
      Path head = Path{}.Extend({CommOp(ph, Routine::kReduceScatter, d, d, false)}, false,
                                "rs");
      variants.push_back({head.Extend({CommOp(ph, Routine::kAllgather, d, d / m, false)},
                                      false, "ag"),
                          false});
      variants.push_back({head.Extend({CompOp(ph, d / m),
                                       CommOp(ph, Routine::kAllgather, d, d / m, true)},
                                      true, "comp+agc"),
                          true});
    }
    {
      Path head = Path{}.Extend({CommOp(ph, Routine::kReduce, d, d, false)}, false, "red");
      variants.push_back({head.Extend({CommOp(ph, Routine::kBroadcast, d, d, false)}, false,
                                      "bc"),
                          false});
      variants.push_back({head.Extend({CompOp(ph, d),
                                       CommOp(ph, Routine::kBroadcast, d, d, true)},
                                      true, "comp+bcc"),
                          true});
    }
    return variants;
  }

  // Entry compressed. Indivisible: allgather of payloads, then decompress-aggregate (or
  // compressed-domain aggregation when supported).
  {
    Path head = Path{}.Extend({CommOp(ph, Routine::kAllgather, d, d, true)}, true, "agc");
    variants.push_back({head.Extend({DecompOp(ph, d, mi, d)}, false, "dec"), false});
    if (config.supports_compressed_aggregation) {
      variants.push_back({head.Extend({}, true, "aggc"), true});
    }
  }
  // Divisible alltoall | allgather.
  {
    Path head = Path{}.Extend({CommOp(ph, Routine::kAlltoall, d, d / m, true)}, true, "a2ac");
    variants.push_back({head.Extend({DecompOp(ph, d / m, mi, d / m), CompOp(ph, d / m),
                                     CommOp(ph, Routine::kAllgather, d, d / m, true)},
                                    true, "dec+comp+agc"),
                        true});
    variants.push_back({head.Extend({DecompOp(ph, d / m, mi, d / m),
                                     CommOp(ph, Routine::kAllgather, d, d / m, false)},
                                    false, "dec+ag"),
                        false});
    if (config.supports_compressed_aggregation) {
      variants.push_back({head.Extend({CommOp(ph, Routine::kAllgather, d, d / m, true)}, true,
                                      "skip+agc"),
                          true});
    }
  }
  // Divisible gather | broadcast.
  {
    Path head = Path{}.Extend({CommOp(ph, Routine::kGather, d, d, true)}, true, "gc");
    variants.push_back({head.Extend({DecompOp(ph, d, mi, d), CompOp(ph, d),
                                     CommOp(ph, Routine::kBroadcast, d, d, true)},
                                    true, "dec+comp+bcc"),
                        true});
    variants.push_back({head.Extend({DecompOp(ph, d, mi, d),
                                     CommOp(ph, Routine::kBroadcast, d, d, false)},
                                    false, "dec+bc"),
                        false});
    if (config.supports_compressed_aggregation) {
      variants.push_back({head.Extend({CommOp(ph, Routine::kBroadcast, d, d, true)}, true,
                                      "skip+bcc"),
                          true});
    }
  }
  return variants;
}

void EnumerateHierarchical(const TreeConfig& config, std::vector<CompressionOption>* out) {
  const auto g = static_cast<double>(config.gpus_per_machine);
  const size_t gi = config.gpus_per_machine;
  const CommPhase ph2 = CommPhase::kIntraSecond;

  for (const Intra1Variant& intra1 : EnumerateIntra1(config)) {
    // Boundary A: optionally compress an uncompressed payload for the inter phase.
    std::vector<Path> entries;
    if (intra1.path.compressed) {
      entries.push_back(intra1.path);
    } else {
      entries.push_back(intra1.path);
      entries.push_back(intra1.path.Extend({CompOp(CommPhase::kInter, intra1.inter_domain)},
                                           true, "comp"));
    }
    for (const Path& entry : entries) {
      for (const InterVariant& inter :
           EnumerateInter(config, entry.compressed, intra1.inter_domain)) {
        Path after_inter = entry;
        for (const Op& op : inter.path.ops) {
          after_inter.ops.push_back(op);
        }
        after_inter.compressed = inter.compressed;
        after_inter.label += "|" + inter.path.label;

        // Boundary B: a compressed payload may be decompressed now or carried into the
        // second intra step (sub-trees T1/T2).
        std::vector<Path> exits;
        if (after_inter.compressed) {
          exits.push_back(after_inter.Extend(
              {DecompOp(CommPhase::kIntraSecond, intra1.inter_domain, 1, intra1.inter_domain)},
              false, "dec"));
          exits.push_back(after_inter);  // keep compressed
        } else {
          exits.push_back(after_inter);
          // Compress just for the second intra step ("intra2-only" compression).
          exits.push_back(after_inter.Extend(
              {CompOp(CommPhase::kIntraSecond, intra1.inter_domain)}, true, "comp"));
        }
        for (const Path& exit : exits) {
          Path full = exit;
          if (intra1.topology == Topology::kSharded) {
            // Second intra step: allgather of per-GPU shards.
            if (full.compressed) {
              full = full.Extend({CommOp(ph2, Routine::kAllgather, 1.0, 1.0 / g, true),
                                  DecompOp(ph2, 1.0, gi, 1.0 / g)},
                                 false, "agc+dec");
            } else {
              full = full.Extend({CommOp(ph2, Routine::kAllgather, 1.0, 1.0 / g, false)},
                                 false, "ag");
            }
          } else {
            // Rooted: broadcast the full tensor from the root GPU.
            if (full.compressed) {
              full = full.Extend({CommOp(ph2, Routine::kBroadcast, 1.0, 1.0, true),
                                  DecompOp(ph2, 1.0, 1, 1.0)},
                                 false, "bcc+dec");
            } else {
              full = full.Extend({CommOp(ph2, Routine::kBroadcast, 1.0, 1.0, false)}, false,
                                 "bc");
            }
          }
          out->push_back(Finish(full, false));
        }
      }
    }
  }
}

}  // namespace

size_t OptionSpace::TotalWithDeviceChoices() const {
  // Saturating: 2^slots wraps to 0 once slots reaches the word size, and the sum can
  // wrap even when each term fits; SIZE_MAX is the honest "too many to enumerate".
  size_t total = 0;
  for (const auto& option : options) {
    total = SaturatingAdd(total, SaturatingPow2(option.DeviceSlots()));
  }
  return total;
}

OptionSpace EnumerateOptions(const TreeConfig& config) {
  OptionSpace space;
  EnumerateFlat(config, &space.options);
  if (config.Hierarchical()) {
    EnumerateHierarchical(config, &space.options);
  }
  // Deduplicate structurally identical paths (different branch orders can coincide).
  std::vector<CompressionOption> unique;
  for (auto& option : space.options) {
    const bool seen = std::any_of(unique.begin(), unique.end(),
                                  [&](const CompressionOption& u) { return u == option; });
    if (!seen) {
      unique.push_back(std::move(option));
    }
  }
  if (config.max_compress_ops > 0) {
    std::erase_if(unique, [&](const CompressionOption& option) {
      return option.CompressOpCount() > config.max_compress_ops;
    });
  }
  space.options = std::move(unique);
  for (const auto& option : space.options) {
    ESP_CHECK(ValidateOption(config, option)) << option.Describe();
  }
  return space;
}

CompressionOption DefaultUncompressedOption(const TreeConfig& config) {
  if (!config.Hierarchical()) {
    CompressionOption option;
    option.flat = true;
    option.label = "flat[ar]";
    option.ops = {CommOp(CommPhase::kFlat, Routine::kAllreduce, 1.0, 1.0, false)};
    return option;
  }
  const auto g = static_cast<double>(config.gpus_per_machine);
  CompressionOption option;
  option.flat = false;
  option.label = "hier[rs|ar|ag]";
  option.ops = {CommOp(CommPhase::kIntraFirst, Routine::kReduceScatter, 1.0, 1.0, false),
                CommOp(CommPhase::kInter, Routine::kAllreduce, 1.0 / g, 1.0 / g, false),
                CommOp(CommPhase::kIntraSecond, Routine::kAllgather, 1.0, 1.0 / g, false)};
  return option;
}

std::vector<CompressionOption> CandidateOptions(const TreeConfig& config) {
  const auto g = static_cast<double>(config.gpus_per_machine);
  const size_t gi = config.gpus_per_machine;
  const size_t mi = config.machines;
  const auto m = static_cast<double>(mi);
  std::vector<CompressionOption> candidates;

  if (!config.Hierarchical()) {
    // Single-level cluster: the flat options are the whole story; keep the compressed
    // ones plus the uncompressed scheme change.
    OptionSpace space = EnumerateOptions(config);
    for (auto& option : space.options) {
      candidates.push_back(std::move(option));
    }
    return candidates;
  }

  auto push = [&](std::vector<Op> ops, bool flat, const std::string& label) {
    CompressionOption option;
    option.ops = std::move(ops);
    option.flat = flat;
    option.label = label;
    candidates.push_back(std::move(option));
  };

  // Uncompressed scheme variants (Dimension 3 without Dimension 1).
  candidates.push_back(DefaultUncompressedOption(config));
  push({CommOp(CommPhase::kFlat, Routine::kAllreduce, 1.0, 1.0, false)}, true, "flat[ar]");

  // Inter-only compression, indivisible (HiPress/BytePS-Compress territory).
  push({CommOp(CommPhase::kIntraFirst, Routine::kReduceScatter, 1.0, 1.0, false),
        CompOp(CommPhase::kInter, 1.0 / g),
        CommOp(CommPhase::kInter, Routine::kAllgather, 1.0 / g, 1.0 / g, true),
        DecompOp(CommPhase::kInter, 1.0 / g, mi, 1.0 / g),
        CommOp(CommPhase::kIntraSecond, Routine::kAllgather, 1.0, 1.0 / g, false)},
       false, "hier[rs|comp+agc+dec|ag]");

  // Inter-only compression, divisible.
  push({CommOp(CommPhase::kIntraFirst, Routine::kReduceScatter, 1.0, 1.0, false),
        CompOp(CommPhase::kInter, 1.0 / g),
        CommOp(CommPhase::kInter, Routine::kAlltoall, 1.0 / g, 1.0 / (g * m), true),
        DecompOp(CommPhase::kInter, 1.0 / (g * m), mi, 1.0 / (g * m)),
        CompOp(CommPhase::kInter, 1.0 / (g * m)),
        CommOp(CommPhase::kInter, Routine::kAllgather, 1.0 / g, 1.0 / (g * m), true),
        // Boundary-B convention (EnumerateHierarchical): the inter allgather coalesced
        // the shard into one merged payload, so the exit decompress fans in 1 payload
        // of the whole inter-domain fraction.
        DecompOp(CommPhase::kIntraSecond, 1.0 / g, 1, 1.0 / g),
        CommOp(CommPhase::kIntraSecond, Routine::kAllgather, 1.0, 1.0 / g, false)},
       false, "hier[rs|comp+a2ac+dec+comp+agc+dec|ag]");
  if (config.supports_compressed_aggregation) {
    push({CommOp(CommPhase::kIntraFirst, Routine::kReduceScatter, 1.0, 1.0, false),
          CompOp(CommPhase::kInter, 1.0 / g),
          CommOp(CommPhase::kInter, Routine::kAlltoall, 1.0 / g, 1.0 / (g * m), true),
          CommOp(CommPhase::kInter, Routine::kAllgather, 1.0 / g, 1.0 / (g * m), true),
          // Boundary-B convention (EnumerateHierarchical): the inter allgather
          // coalesced the shard into one merged payload, so the exit decompress fans
          // in 1 payload of the whole inter-domain fraction.
          DecompOp(CommPhase::kIntraSecond, 1.0 / g, 1, 1.0 / g),
          CommOp(CommPhase::kIntraSecond, Routine::kAllgather, 1.0, 1.0 / g, false)},
         false, "hier[rs|comp+a2ac+skip+agc+dec|ag]");
  }

  // Intra+inter compression: compress once, shuffle compressed parts locally, aggregate,
  // re-compress for the inter phase, and keep the result compressed through the second
  // intra step (the "both communications" choice of Dimension 4).
  push({CompOp(CommPhase::kIntraFirst, 1.0),
        CommOp(CommPhase::kIntraFirst, Routine::kAlltoall, 1.0, 1.0 / g, true),
        DecompOp(CommPhase::kIntraFirst, 1.0 / g, gi, 1.0 / g),
        CompOp(CommPhase::kInter, 1.0 / g),
        CommOp(CommPhase::kInter, Routine::kAllgather, 1.0 / g, 1.0 / g, true),
        DecompOp(CommPhase::kInter, 1.0 / g, mi, 1.0 / g),
        CompOp(CommPhase::kIntraSecond, 1.0 / g),
        CommOp(CommPhase::kIntraSecond, Routine::kAllgather, 1.0, 1.0 / g, true),
        DecompOp(CommPhase::kIntraSecond, 1.0, gi, 1.0 / g)},
       false, "hier[comp+a2ac+dec|comp+agc+dec|comp+agc+dec]");
  if (config.supports_compressed_aggregation) {
    // With compressed-domain aggregation the tensor stays compressed end-to-end.
    push({CompOp(CommPhase::kIntraFirst, 1.0),
          CommOp(CommPhase::kIntraFirst, Routine::kAlltoall, 1.0, 1.0 / g, true),
          CommOp(CommPhase::kInter, Routine::kAllgather, 1.0 / g, 1.0 / g, true),
          CommOp(CommPhase::kIntraSecond, Routine::kAllgather, 1.0, 1.0 / g, true),
          // The intra-2 allgather coalesces each peer's merged holding into one bundle,
          // so the closing decompress fans in gi bundles of 1/g each (the inter-phase
          // overlap was already aggregated in the compressed domain).
          DecompOp(CommPhase::kIntraSecond, 1.0, gi, 1.0 / g)},
         false, "hier[comp+a2ac|agc|agc+dec]");
  }

  // Intra+inter with divisible inter scheme and uncompressed second intra step (the
  // "Alltoall+Alltoall" pipeline of §5.3's Dimension-4 study).
  push({CompOp(CommPhase::kIntraFirst, 1.0),
        CommOp(CommPhase::kIntraFirst, Routine::kAlltoall, 1.0, 1.0 / g, true),
        DecompOp(CommPhase::kIntraFirst, 1.0 / g, gi, 1.0 / g),
        CompOp(CommPhase::kInter, 1.0 / g),
        CommOp(CommPhase::kInter, Routine::kAlltoall, 1.0 / g, 1.0 / (g * m), true),
        DecompOp(CommPhase::kInter, 1.0 / (g * m), mi, 1.0 / (g * m)),
        CompOp(CommPhase::kInter, 1.0 / (g * m)),
        CommOp(CommPhase::kInter, Routine::kAllgather, 1.0 / g, 1.0 / (g * m), true),
        // Same boundary-B convention as above: one merged payload out of the inter step.
        DecompOp(CommPhase::kIntraSecond, 1.0 / g, 1, 1.0 / g),
        CommOp(CommPhase::kIntraSecond, Routine::kAllgather, 1.0, 1.0 / g, false)},
       false, "hier[comp+a2ac+dec|comp+a2ac+dec+comp+agc+dec|ag]");

  // Flat compressed options (Dimension 3's flat-vs-hierarchical choice).
  const auto p = static_cast<double>(mi * gi);
  push({CompOp(CommPhase::kFlat, 1.0),
        CommOp(CommPhase::kFlat, Routine::kAllgather, 1.0, 1.0, true),
        DecompOp(CommPhase::kFlat, 1.0, mi * gi, 1.0)},
       true, "flat[comp+agc+dec]");
  push({CompOp(CommPhase::kFlat, 1.0),
        CommOp(CommPhase::kFlat, Routine::kAlltoall, 1.0, 1.0 / p, true),
        DecompOp(CommPhase::kFlat, 1.0 / p, mi * gi, 1.0 / p), CompOp(CommPhase::kFlat, 1.0 / p),
        CommOp(CommPhase::kFlat, Routine::kAllgather, 1.0, 1.0 / p, true),
        DecompOp(CommPhase::kFlat, 1.0, mi * gi, 1.0 / p)},
       true, "flat[comp+a2ac+dec+comp+agc+dec]");

  if (config.max_compress_ops > 0) {
    std::erase_if(candidates, [&](const CompressionOption& option) {
      return option.CompressOpCount() > config.max_compress_ops;
    });
  }
  for (const auto& option : candidates) {
    ESP_CHECK(ValidateOption(config, option)) << option.Describe();
  }
  return candidates;
}

bool ValidateOption(const TreeConfig& config, const CompressionOption& option) {
  if (option.ops.empty()) {
    return false;
  }
  // Rule 1: valid connections — payload state must alternate correctly.
  bool compressed = false;
  bool has_comm = false;
  for (const Op& op : option.ops) {
    switch (op.task) {
      case ActionTask::kCompress:
        if (compressed) {
          return false;  // double compression
        }
        compressed = true;
        break;
      case ActionTask::kDecompress:
        if (!compressed) {
          return false;  // decompressing an uncompressed payload
        }
        compressed = false;
        break;
      case ActionTask::kComm:
        has_comm = true;
        // A compressed payload may not ride an uncompressed-only routine.
        if (op.compressed &&
            (op.routine == Routine::kAllreduce || op.routine == Routine::kReduceScatter ||
             op.routine == Routine::kReduce)) {
          return false;
        }
        // Compressed tensors cannot use Allreduce/Reduce-scatter/Reduce (their
        // aggregation is not associative, §4.2.1); conversely a comm op marked
        // compressed requires the payload to be compressed.
        if (op.compressed != compressed) {
          return false;
        }
        break;
    }
  }
  if (!has_comm || compressed) {
    return false;  // must end decompressed and must communicate
  }
  // Rule 2 + 3: phases must be ordered flat-only or intra1 -> inter -> intra2, and
  // flat options may not use hierarchical phases.
  int max_phase = -1;
  for (const Op& op : option.ops) {
    if (option.flat) {
      if (op.phase != CommPhase::kFlat) {
        return false;
      }
      continue;
    }
    if (op.phase == CommPhase::kFlat) {
      return false;
    }
    const int phase_rank = op.phase == CommPhase::kIntraFirst ? 0
                           : op.phase == CommPhase::kInter    ? 1
                                                              : 2;
    if (phase_rank < max_phase) {
      return false;
    }
    max_phase = std::max(max_phase, phase_rank);
  }
  if (!option.flat && !config.Hierarchical()) {
    return false;
  }
  return true;
}

}  // namespace espresso
