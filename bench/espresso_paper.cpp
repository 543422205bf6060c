// espresso_paper: regenerates the paper's evaluation on the calibrated simulator, one
// subcommand per table or figure (§5's Tables 1, 5 and 6 and Figures 10-16, the option
// space of §4.4.1, this implementation's ablations and a scale-out projection), plus the
// motivating timelines of Figures 2, 5 and 9. EXPERIMENTS.md sets each printout against
// the paper's numbers.
//
// Usage: espresso_paper <subcommand>
//   table1 table5 table6 fig10 fig11 fig12 fig13 fig14 fig15 fig16
//   optionspace ablation scaleout timelines   one table or figure
//   all                                       every one of them, in that order
//
// fig10, fig15 and fig16 check the shape of their result and exit 1 when it fails;
// `all` runs everything and exits 1 naming each failed check. scaleout prints a NOTE
// when Espresso's margin dips, and still exits 0. A missing or unknown subcommand prints
// the list and exits 2. table5, table6, optionspace and ablation time the host (medians
// of cold runs where they say so); every other figure is deterministic.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/compress/compressor.h"
#include "src/core/baselines.h"
#include "src/core/brute_force.h"
#include "src/core/decision_tree.h"
#include "src/core/espresso.h"
#include "src/core/timeline.h"
#include "src/ddl/experiment.h"
#include "src/models/model_profile.h"
#include "src/models/model_stats.h"
#include "src/models/model_zoo.h"
#include "src/models/tensor_fusion.h"
#include "src/nn/parallel_trainer.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using namespace espresso;

// Tables 5 and 6 and the option-space enumeration report the median of this many cold
// runs. A timed selection starts from a fresh selector, so its F(S) cache is empty.
constexpr int kTimedRuns = 3;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Table 1: scaling factors of three popular DNN models with 64 GPUs and hierarchical
// communication. FP32 is training without GC; "GC with GPU" / "GC with CPU" apply the
// paper's per-model compression algorithm on the respective device (the GPU/CPU-only
// framework configurations the paper measured).
//
// Paper reference values (64 GPUs):
//   GPT2      NVLink+100Gbps  FP32 0.58   GC-GPU 0.67 (+15%)  GC-CPU 0.64 (+10%)
//   BERT-base NVLink+100Gbps  FP32 0.51   GC-GPU 0.55 (+8%)   GC-CPU 0.61 (+20%)
//   LSTM      PCIe+25Gbps     FP32 0.46   GC-GPU 0.43 (-6%)   GC-CPU 0.42 (-9%)
bool Table1() {
  struct Row {
    const char* model;
    const char* algorithm;
    bool pcie;
  };
  const Row rows[] = {
      {"gpt2", "dgc", false},
      {"bert-base", "efsignsgd", false},
      {"lstm", "dgc", true},
  };

  TextTable table({"Model", "Networks", "FP32", "GC with GPU", "GC with CPU"});
  for (const Row& row : rows) {
    const ModelProfile model = GetModel(row.model);
    const ClusterSpec cluster = row.pcie ? PcieCluster() : NvlinkCluster();
    const auto compressor = CreateCompressor(
        CompressorConfig{.algorithm = row.algorithm, .ratio = 0.01});

    const double fp32 =
        RunScheme(model, cluster, *compressor, Scheme::kFp32).scaling_factor;
    // GC with GPU: the GPU-compression framework configuration (HiPress-style
    // selective inter-machine compression on GPUs).
    const double gpu = MeasureThroughput(model, cluster, *compressor,
                                         HiPressStrategy(model, cluster, *compressor))
                           .scaling_factor;
    // GC with CPU: the CPU-compression framework configuration — every tensor
    // compressed on host CPUs for the inter-machine phase (sharded after the intra
    // reduce-scatter, unlike the PS-style BytePS-Compress baseline of Figures 12-13).
    const Strategy cpu_strategy = UniformStrategy(
        model.tensors.size(), InterOnlyIndivisibleOption(cluster, Device::kCpu));
    const double cpu =
        MeasureThroughput(model, cluster, *compressor, cpu_strategy).scaling_factor;

    auto delta = [&](double v) {
      return TextTable::Num(v, 2) + " (" +
             (v >= fp32 ? "+" : "") + TextTable::Percent((v - fp32) / fp32, 0) + ")";
    };
    table.AddRow({model.name, row.pcie ? "PCIe, 25Gbps" : "NVLink, 100Gbps",
                  TextTable::Num(fp32, 2), delta(gpu), delta(cpu)});
  }
  std::cout << "Table 1: scaling factors with 64 GPUs (8 GPUs per machine)\n";
  table.Print(std::cout);
  std::cout << "\nPaper: GPT2 0.58/0.67/0.64; BERT-base 0.51/0.55/0.61; "
               "LSTM 0.46/0.43/0.42\n";
  return true;
}

// Tables 5 and 6 run the paper's evaluation pairings where it gives them, DGC elsewhere.
const char* const kTimedModels[] = {"vgg16", "resnet101", "ugatit", "bert-base", "gpt2",
                                    "lstm"};

const char* Table56Algorithm(const std::string& model) {
  if (model == "bert-base") {
    return "randomk";
  }
  if (model == "gpt2") {
    return "efsignsgd";
  }
  return "dgc";
}

// Table 5: the computational time for Espresso to select compression strategies,
// against the (estimated) brute-force time over |C|^N strategies. Each cell is the
// median of kTimedRuns cold Select() calls.
//
// Paper reference (8 NVLink machines):
//   VGG16 17ms | ResNet101 179ms | UGATIT 84ms | BERT-base 125ms | GPT2 99ms | LSTM 1ms
//   Brute force: > 24h for every model.
bool Table5() {
  TextTable table({"", "VGG16", "ResNet101", "UGATIT", "BERT-base", "GPT2", "LSTM"});
  std::vector<std::string> tensors = {"# of Tensors"};
  std::vector<std::string> espresso_row = {"Espresso"};
  std::vector<std::string> brute_row = {"Brute force"};
  for (const char* name : kTimedModels) {
    const ModelProfile model = GetModel(name);
    const ClusterSpec cluster = NvlinkCluster();
    const auto compressor = CreateCompressor(
        CompressorConfig{.algorithm = Table56Algorithm(name), .ratio = 0.01});
    std::vector<double> seconds;
    uint64_t evaluations = 0;
    for (int run = 0; run < kTimedRuns; ++run) {
      EspressoSelector selector(model, cluster, *compressor);
      const double t0 = Now();
      const SelectionResult result = selector.Select();
      seconds.push_back(Now() - t0);
      evaluations = result.telemetry.evaluations;
    }
    const double selection_seconds = Percentile(seconds, 50);
    tensors.push_back(std::to_string(model.tensors.size()));
    espresso_row.push_back(TextTable::Num(selection_seconds * 1e3, 1) + "ms");
    const double per_eval =
        selection_seconds / static_cast<double>(std::max<uint64_t>(1, evaluations));
    const double brute = EstimateBruteForceSeconds(
        per_eval, CandidateOptions(TreeConfig{8, 8, false}).size(), model.tensors.size());
    brute_row.push_back(brute >= 24 * 3600.0 ? "> 24h"
                                             : TextTable::Num(brute, 1) + "s");
  }
  table.AddRow(tensors);
  table.AddRow(espresso_row);
  table.AddRow(brute_row);
  std::cout << "Table 5: time to select compression strategies (8 NVLink machines)\n";
  table.Print(std::cout);
  std::cout << "Paper: Espresso 17/179/84/125/99/1 ms; brute force > 24h everywhere\n";
  return true;
}

// Table 6: the time to find the best CPU offloading solution (Algorithm 2), with the
// number of tensors left for offloading after Algorithm 1, against brute force over all
// 2^k offload subsets (estimated when infeasible). Each cell is the median of
// kTimedRuns first OffloadToCpu() calls, each on a fresh selector after its
// SelectGpuCompression(); a second call on the same selector would answer every F(S)
// query from its cache.
//
// Paper reference: VGG16 1ms/1ms | ResNet101 30ms/>24h | UGATIT 12ms/1.9h |
//                  BERT-base 44ms/>24h | GPT2 18ms/7.6h | LSTM 1ms/1ms
bool Table6() {
  TextTable table({"", "VGG16", "ResNet101", "UGATIT", "BERT-base", "GPT2", "LSTM"});
  std::vector<std::string> tensors = {"# of Tensors"};
  std::vector<std::string> espresso_row = {"Espresso"};
  std::vector<std::string> combos_row = {"U combinations"};
  std::vector<std::string> brute_row = {"Brute force"};
  for (const char* name : kTimedModels) {
    const ModelProfile model = GetModel(name);
    const ClusterSpec cluster = NvlinkCluster();
    const auto compressor = CreateCompressor(
        CompressorConfig{.algorithm = Table56Algorithm(name), .ratio = 0.01});
    std::vector<double> seconds;
    size_t offload_tensors = 0;
    size_t combinations = 0;
    bool exact = true;
    size_t evaluations = 0;
    for (int run = 0; run < kTimedRuns; ++run) {
      EspressoSelector selector(model, cluster, *compressor);
      const Strategy gpu_stage = selector.SelectGpuCompression();
      offload_tensors = 0;
      for (const auto& option : gpu_stage.options) {
        if (option.Compressed() && option.UsesDevice(Device::kGpu)) {
          ++offload_tensors;
        }
      }
      evaluations = 0;
      const double t0 = Now();
      selector.OffloadToCpu(gpu_stage, &combinations, &exact, &evaluations);
      seconds.push_back(Now() - t0);
    }
    const double offload_seconds = Percentile(seconds, 50);
    tensors.push_back(std::to_string(offload_tensors));
    espresso_row.push_back(TextTable::Num(offload_seconds * 1e3, 1) + "ms" +
                           (exact ? "" : "*"));
    combos_row.push_back(std::to_string(combinations));
    // Brute force: 2^k offload subsets at the measured per-evaluation cost.
    const double per_eval =
        evaluations > 0 ? offload_seconds / static_cast<double>(evaluations) : 1e-4;
    double brute = 1e18;
    if (offload_tensors < 60) {
      brute = per_eval * std::pow(2.0, static_cast<double>(offload_tensors));
    }
    brute_row.push_back(brute >= 24 * 3600.0
                            ? "> 24h"
                            : (brute >= 1.0 ? TextTable::Num(brute, 1) + "s"
                                            : TextTable::Num(brute * 1e3, 1) + "ms"));
  }
  table.AddRow(tensors);
  table.AddRow(espresso_row);
  table.AddRow(combos_row);
  table.AddRow(brute_row);
  std::cout << "Table 6: time to find the best CPU offloading ("
               "* = coordinate descent beyond the exhaustive budget)\n";
  table.Print(std::cout);
  std::cout << "Paper: Espresso 1/30/12/44/18/1 ms; brute force 1ms/>24h/1.9h/>24h/7.6h/1ms\n";
  return true;
}

// Figure 10: the benefit ratio of GPU compression — reduced communication time divided
// by incurred compression time — as a function of tensor size (64 GPUs, NVLink
// machines). The ratio grows with size because every compression pays a constant
// kernel-launch overhead; this is the insight behind Property 2's size prioritization.
bool Figure10() {
  const ClusterSpec cluster = NvlinkCluster();
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.01});

  TextTable table({"Tensor size", "comm saved (ms)", "compression cost (ms)",
                   "benefit ratio"});
  double previous_ratio = 0.0;
  bool monotone = true;
  for (size_t elements = 1 << 12; elements <= (64 << 20); elements *= 4) {
    ModelProfile model;
    model.name = "probe";
    model.forward_time_s = 1e-3;
    model.optimizer_time_s = 1e-4;
    model.batch_size = 1;
    model.throughput_unit = "it/s";
    model.tensors = {{"probe", elements, 1e-3}};
    TimelineEvaluator evaluator(model, cluster, *compressor);

    const CompressionOption plain =
        DefaultUncompressedOption(TreeConfig{cluster.machines, cluster.gpus_per_machine,
                                             false});
    const CompressionOption compressed = InterOnlyIndivisibleOption(cluster, Device::kGpu);
    double plain_comm = 0.0;
    for (const Op& op : plain.ops) {
      plain_comm += evaluator.OpDuration(op, elements);
    }
    double compressed_comm = 0.0, compression = 0.0;
    for (const Op& op : compressed.ops) {
      const double d = evaluator.OpDuration(op, elements);
      (op.task == ActionTask::kComm ? compressed_comm : compression) += d;
    }
    const double saved = plain_comm - compressed_comm;
    const double ratio = saved / compression;
    if (ratio < previous_ratio) {
      monotone = false;
    }
    previous_ratio = ratio;

    std::string size_label;
    if (elements >= (1 << 20)) {
      size_label = std::to_string(elements >> 20) + "M";
    } else {
      size_label = std::to_string(elements >> 10) + "K";
    }
    table.AddRow({size_label + " elems", TextTable::Num(saved * 1e3, 3),
                  TextTable::Num(compression * 1e3, 3), TextTable::Num(ratio, 2)});
  }
  std::cout << "Figure 10: benefit ratio of GPU compression (DGC 1%, 64 GPUs, NVLink)\n";
  table.Print(std::cout);
  std::cout << (monotone ? "\nShape check PASSED: ratio increases with tensor size "
                           "(matches the paper's Figure 10)\n"
                         : "\nShape check FAILED: ratio is not monotone in size\n");
  return monotone;
}

// Figure 11: number of tensors sharing the same size, per model. Few distinct sizes is
// what keeps Algorithm 2's product space small (Theorem 1, Table 6).
bool Figure11() {
  TextTable table({"Model", "# tensors", "distinct sizes", "largest group",
                   "top size groups (size x count)"});
  for (const ModelProfile& model : AllModels()) {
    const auto histogram = SizeHistogram(model);
    size_t largest = 0;
    // Pick the three most-populated size groups for the summary column.
    std::vector<std::pair<size_t, size_t>> by_count(histogram.begin(), histogram.end());
    std::sort(by_count.begin(), by_count.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::string top;
    for (size_t i = 0; i < std::min<size_t>(3, by_count.size()); ++i) {
      largest = std::max(largest, by_count[i].second);
      if (!top.empty()) {
        top += ", ";
      }
      top += std::to_string(by_count[i].first) + "x" + std::to_string(by_count[i].second);
    }
    table.AddRow({model.name, std::to_string(model.TensorCount()),
                  std::to_string(histogram.size()), std::to_string(largest), top});
  }
  std::cout << "Figure 11: tensors sharing the same size per model\n";
  table.Print(std::cout);
  std::cout << "\nPaper's point: hundreds of tensors collapse into a handful of size "
               "groups, so Algorithm 2's offload space stays a few thousand choices\n";
  return true;
}

// The Figure 12/13 throughput sweep: runs every scheme over 8..64 GPUs for one (model,
// algorithm, testbed) combination and prints the series the paper plots, plus the
// speedup factors its text quotes.
void ThroughputSweep(const std::string& model_name, const std::string& algorithm,
                     bool pcie) {
  const ModelProfile model = GetModel(model_name);
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = algorithm, .ratio = 0.01});

  const Scheme schemes[] = {Scheme::kFp32, Scheme::kBytePSCompress, Scheme::kHiTopKComm,
                            Scheme::kHiPress, Scheme::kEspresso, Scheme::kUpperBound};
  const size_t machine_counts[] = {1, 2, 4, 8};

  std::cout << "--- " << model_name << " + " << algorithm << " on "
            << (pcie ? "PCIe-only machines, 25Gbps Ethernet"
                     : "NVLink machines, 100Gbps Ethernet")
            << " (" << model.throughput_unit << ") ---\n";

  TextTable table({"Scheme", "8 GPUs", "16 GPUs", "32 GPUs", "64 GPUs"});
  std::map<Scheme, double> at64;
  for (Scheme scheme : schemes) {
    std::vector<std::string> row = {SchemeName(scheme)};
    for (size_t machines : machine_counts) {
      const ClusterSpec cluster = pcie ? PcieCluster(machines) : NvlinkCluster(machines);
      const ThroughputResult r = RunScheme(model, cluster, *compressor, scheme);
      row.push_back(TextTable::Num(r.throughput, 0));
      if (machines == 8) {
        at64[scheme] = r.throughput;
      }
    }
    table.AddRow(row);
  }
  table.Print(std::cout);

  auto speedup = [&](Scheme over) {
    return TextTable::Percent(at64[Scheme::kEspresso] / at64[over] - 1.0, 0);
  };
  std::cout << "Espresso speedup at 64 GPUs: vs FP32 " << speedup(Scheme::kFp32)
            << ", vs BytePS-Compress " << speedup(Scheme::kBytePSCompress)
            << ", vs HiTopKComm " << speedup(Scheme::kHiTopKComm) << ", vs HiPress "
            << speedup(Scheme::kHiPress) << "; gap to Upper Bound "
            << TextTable::Percent(1.0 - at64[Scheme::kEspresso] / at64[Scheme::kUpperBound],
                                  0)
            << "\n\n";
}

// Figure 12: training throughput on NVLink-based GPU machines with 100Gbps Ethernet:
// (a) BERT-base + Random-k, (b) GPT2 + EFSignSGD, (c) UGATIT + DGC, each across
// 8..64 GPUs for FP32 / BytePS-Compress / HiTopKComm / HiPress / Espresso /
// Upper Bound.
//
// Paper highlights at 64 GPUs: BERT-base — Espresso beats BytePS-Compress/HiTopKComm/
// HiPress by 31%/54%/40%; GPT2 — beats BytePS-Compress/HiPress by 42%/33%;
// UGATIT — beats FP32/BytePS-Compress/HiTopKComm/HiPress by 149%/205%/50%/35%
// (BytePS-Compress harms UGATIT).
bool Figure12() {
  std::cout << "Figure 12: throughput with NVLink machines + 100Gbps Ethernet\n\n";
  ThroughputSweep("bert-base", "randomk", /*pcie=*/false);
  ThroughputSweep("gpt2", "efsignsgd", /*pcie=*/false);
  ThroughputSweep("ugatit", "dgc", /*pcie=*/false);
  return true;
}

// Figure 13: training throughput on PCIe-only GPU machines with 25Gbps Ethernet:
// (a) VGG16 + Random-k, (b) LSTM + EFSignSGD, (c) ResNet101 + DGC.
//
// Paper highlights at 64 GPUs: VGG16 — Espresso beats FP32/BytePS-Compress/HiPress by
// 269%/357%/55%; LSTM — beats BytePS-Compress/HiTopKComm/HiPress by 101%/73%/77%
// (BytePS-Compress harms LSTM by 12%); ResNet101 — not communication-intensive, yet
// Espresso still beats FP32/BytePS-Compress/HiPress by up to 20%/18%/24% while
// HiTopKComm's all-tensor compression backfires.
bool Figure13() {
  std::cout << "Figure 13: throughput with PCIe-only machines + 25Gbps Ethernet\n\n";
  ThroughputSweep("vgg16", "randomk", /*pcie=*/true);
  ThroughputSweep("lstm", "efsignsgd", /*pcie=*/true);
  ThroughputSweep("resnet101", "dgc", /*pcie=*/true);
  return true;
}

// Figure 14: cumulative distribution of the performance difference from the Upper Bound
// across every (model x GC algorithm) combination with 64 GPUs, for both testbeds.
// The paper's claim: Espresso stays within 10% of the Upper Bound everywhere, while
// every baseline has a long tail.
bool Figure14() {
  const char* algorithms[] = {"randomk", "dgc", "efsignsgd"};
  const Scheme schemes[] = {Scheme::kBytePSCompress, Scheme::kHiTopKComm, Scheme::kHiPress,
                            Scheme::kEspresso};

  for (bool pcie : {false, true}) {
    std::cout << "Figure 14" << (pcie ? "(b): PCIe-only machines" : "(a): NVLink machines")
              << ", 64 GPUs — perf. difference from Upper Bound\n";
    const ClusterSpec cluster = pcie ? PcieCluster() : NvlinkCluster();

    std::map<Scheme, std::vector<double>> differences;
    for (const ModelProfile& model : AllModels()) {
      for (const char* algorithm : algorithms) {
        const auto compressor =
            CreateCompressor(CompressorConfig{.algorithm = algorithm, .ratio = 0.01});
        const double bound =
            RunScheme(model, cluster, *compressor, Scheme::kUpperBound).throughput;
        for (Scheme scheme : schemes) {
          const double t = RunScheme(model, cluster, *compressor, scheme).throughput;
          differences[scheme].push_back((bound - t) / bound * 100.0);
        }
      }
    }

    TextTable table({"Scheme", "p25", "median", "p75", "p90", "max"});
    for (Scheme scheme : schemes) {
      auto& d = differences[scheme];
      table.AddRow({SchemeName(scheme), TextTable::Num(Percentile(d, 25), 1) + "%",
                    TextTable::Num(Percentile(d, 50), 1) + "%",
                    TextTable::Num(Percentile(d, 75), 1) + "%",
                    TextTable::Num(Percentile(d, 90), 1) + "%",
                    TextTable::Num(Percentile(d, 100), 1) + "%"});
    }
    table.Print(std::cout);

    // Full Espresso CDF (the paper's headline series).
    std::cout << "Espresso CDF: ";
    for (const CdfPoint& p : EmpiricalCdf(differences[Scheme::kEspresso])) {
      std::cout << TextTable::Num(p.value, 1) << "%@" << TextTable::Num(p.cumulative, 2)
                << " ";
    }
    std::cout << "\n\n";
  }
  std::cout << "Paper: Espresso always within 10% of Upper Bound (e.g. GPT2+EFSignSGD 3%, "
               "UGATIT+DGC 5%, BERT-base+Randomk 7%)\n";
  return true;
}

// One Figure 15 panel: prints each crippled mechanism's scaling factor against the full
// selection's and returns whether the full search space won.
bool CrippledPanel(const char* title, const ModelProfile& model, const ClusterSpec& cluster,
                   const Compressor& compressor,
                   const std::vector<std::pair<const char*, CrippledDimension>>& mechanisms) {
  EspressoSelector selector(model, cluster, compressor);
  const SelectionResult full = selector.Select();
  const double full_scaling =
      MeasureThroughput(model, cluster, compressor, full.strategy).scaling_factor;

  TextTable table({"Mechanism", "scaling factor", "vs Espresso"});
  bool espresso_wins = true;
  for (const auto& [name, dim] : mechanisms) {
    const Strategy s = CrippledStrategy(model, cluster, compressor, dim);
    const double scaling = MeasureThroughput(model, cluster, compressor, s).scaling_factor;
    if (scaling > full_scaling + 1e-9) {
      espresso_wins = false;
    }
    table.AddRow({name, TextTable::Num(scaling, 2),
                  TextTable::Percent(scaling / full_scaling - 1.0, 1)});
  }
  table.AddRow({"Espresso (all 4 dims)", TextTable::Num(full_scaling, 2), "--"});
  std::cout << title << "\n";
  table.Print(std::cout);
  std::cout << (espresso_wins ? "Shape check PASSED: full search space wins\n\n"
                              : "Shape check FAILED: a crippled mechanism won\n\n");
  return espresso_wins;
}

// Figure 15: the importance of the entire search space. Each panel cripples one of the
// four dimensions and reruns the selection; the full four-dimensional Espresso always
// wins. VGG16 with 64 GPUs, EFSignSGD for (d) per the paper's setup.
//
// The paper runs (a)-(c) on NVLink machines; on our calibration VGG16+NVLink is
// compute-bound at 64 GPUs (every mechanism saturates at scaling 1.0), so the panels
// use the PCIe testbed where the restricted spaces visibly separate — the claim under
// test (full space >= every crippled space) is testbed-independent.
bool Figure15() {
  const ModelProfile model = GetModel("vgg16");
  const auto randomk =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.01});
  const auto efsignsgd = CreateCompressor(CompressorConfig{.algorithm = "efsignsgd"});

  std::cout << "Figure 15: crippling any dimension is never better (VGG16, 64 GPUs)\n\n";
  bool passed = true;
  passed &= CrippledPanel(
      "(a) Restrict Dimension 1 (which tensors to compress) — PCIe + Randomk", model,
      PcieCluster(), *randomk,
      {{"All compression", CrippledDimension::kAllCompression},
       {"Myopic compression", CrippledDimension::kMyopicCompression}});
  passed &= CrippledPanel("(b) Restrict Dimension 2 (compute resource) — PCIe + Randomk",
                          model, PcieCluster(), *randomk,
                          {{"GPU compression only", CrippledDimension::kGpuCompression},
                           {"CPU compression only", CrippledDimension::kCpuCompression}});
  passed &= CrippledPanel(
      "(c) Restrict Dimension 3 (communication scheme) — PCIe + Randomk", model,
      PcieCluster(), *randomk,
      {{"Inter Allgather", CrippledDimension::kInterAllgather},
       {"Inter Alltoall", CrippledDimension::kInterAlltoall}});
  passed &= CrippledPanel(
      "(d) Restrict Dimension 4 (compression choice) — PCIe + EFSignSGD", model,
      PcieCluster(), *efsignsgd,
      {{"Inter Alltoall", CrippledDimension::kInterAlltoall},
       {"Alltoall+Alltoall", CrippledDimension::kAlltoallAlltoall}});
  return passed;
}

// Figure 16: convergence validation. The paper fine-tunes BERT-base on SQuAD and trains
// ResNet101 on ImageNet; offline we substitute a data-parallel MLP on a synthetic
// dataset trained through the *real* compression pipeline (error feedback + functional
// collectives), plus the simulated wall-clock speedups for the paper's two setups
// (DESIGN.md documents the substitution).
//
// Paper: BERT F1 with DGC/Randomk matches FP32 at ~1.55x speedup; ResNet101+EFSignSGD
// reaches 77.10% vs 77.18% top-1 at 1.23x speedup.
bool Figure16() {
  // Part 1: accuracy parity of error-compensated compressed training.
  const Dataset all = MakeGaussianBlobs(2048, 16, 5, 1.4, 41);
  const Dataset train = Slice(all, 0, 1536);
  const Dataset test = Slice(all, 1536, 512);

  TrainConfig base;
  base.workers = 8;
  base.hidden_dim = 32;
  base.batch_per_worker = 16;
  base.learning_rate = 0.05;
  base.epochs = 25;
  base.seed = 2026;

  const auto fp32_history = TrainDataParallel(train, test, base);
  const double fp32_acc = fp32_history.back().test_accuracy;

  TextTable accuracy({"Training", "final train loss", "test accuracy", "delta vs FP32"});
  accuracy.AddRow({"FP32 (no compression)",
                   TextTable::Num(fp32_history.back().train_loss, 4),
                   TextTable::Percent(fp32_acc, 2), "--"});
  bool parity = true;
  for (const char* algorithm : {"dgc", "randomk", "efsignsgd"}) {
    const auto compressor =
        CreateCompressor(CompressorConfig{.algorithm = algorithm, .ratio = 0.05});
    TrainConfig config = base;
    config.scheme = SyncScheme::kCompressedDivisible;
    config.compressor = compressor.get();
    const auto history = TrainDataParallel(train, test, config);
    const double acc = history.back().test_accuracy;
    if (acc < fp32_acc - 0.05) {
      parity = false;
    }
    accuracy.AddRow({std::string("Espresso + ") + algorithm + " (EF)",
                     TextTable::Num(history.back().train_loss, 4),
                     TextTable::Percent(acc, 2),
                     TextTable::Percent(acc - fp32_acc, 2)});
  }
  std::cout << "Figure 16 (accuracy): 8 data-parallel workers, real compressed gradient "
               "exchange with error feedback\n";
  accuracy.Print(std::cout);
  std::cout << (parity ? "Shape check PASSED: compression preserves accuracy\n\n"
                       : "Shape check FAILED: accuracy degraded beyond 5%\n\n");

  // Part 2: the speedups the paper pairs with those accuracy curves.
  TextTable speedups({"Setup", "FP32 iter (ms)", "Espresso iter (ms)", "speedup"});
  struct Setup {
    const char* label;
    const char* model;
    const char* algorithm;
  };
  for (const Setup& s : {Setup{"BERT-base + DGC (Fig 16a)", "bert-base", "dgc"},
                         Setup{"BERT-base + Randomk (Fig 16a)", "bert-base", "randomk"},
                         Setup{"ResNet101 + EFSignSGD (Fig 16b)", "resnet101",
                               "efsignsgd"}}) {
    const ModelProfile model = GetModel(s.model);
    const ClusterSpec cluster = NvlinkCluster();
    const auto compressor =
        CreateCompressor(CompressorConfig{.algorithm = s.algorithm, .ratio = 0.01});
    const double fp32 =
        RunScheme(model, cluster, *compressor, Scheme::kFp32).iteration_time_s;
    const double espresso =
        RunScheme(model, cluster, *compressor, Scheme::kEspresso).iteration_time_s;
    speedups.AddRow({s.label, TextTable::Num(fp32 * 1e3, 1),
                     TextTable::Num(espresso * 1e3, 1),
                     TextTable::Num(fp32 / espresso, 2) + "x"});
  }
  std::cout << "Figure 16 (speedup): simulated 64-GPU NVLink testbed\n";
  speedups.Print(std::cout);
  std::cout << "Paper: ~1.55x for BERT-base fine-tuning, 1.23x for ResNet101\n";
  return parity;
}

// Option-space statistics (§4.4.1): the size of the compression-option space |C| that
// makes brute force intractable, for several cluster shapes and with/without
// compressed-domain aggregation, and the time to enumerate it (median of kTimedRuns).
// The paper quotes |C| = 4341 for its full tree; the structure (hundreds of structural
// paths times 2^slots device choices) is the contract, and EXPERIMENTS.md records our
// constant.
bool OptionSpaceSizes() {
  TextTable table({"Cluster", "compressed agg", "structural paths", "|C| with devices",
                   "Algorithm-1 candidates", "enumerate (us)", "candidates (us)"});
  struct Shape {
    size_t machines, gpus;
    bool agg;
  };
  for (const Shape& s : {Shape{8, 8, false}, Shape{8, 8, true}, Shape{16, 4, false},
                         Shape{1, 8, false}, Shape{4, 1, false}}) {
    const TreeConfig config{s.machines, s.gpus, s.agg};
    OptionSpace space;
    std::vector<CompressionOption> candidates;
    std::vector<double> enumerate_seconds;
    std::vector<double> candidate_seconds;
    for (int run = 0; run < kTimedRuns; ++run) {
      const double t0 = Now();
      space = EnumerateOptions(config);
      const double t1 = Now();
      candidates = CandidateOptions(config);
      candidate_seconds.push_back(Now() - t1);
      enumerate_seconds.push_back(t1 - t0);
    }
    table.AddRow({std::to_string(s.machines) + "x" + std::to_string(s.gpus),
                  s.agg ? "yes" : "no", std::to_string(space.options.size()),
                  std::to_string(space.TotalWithDeviceChoices()),
                  std::to_string(candidates.size()),
                  TextTable::Num(Percentile(enumerate_seconds, 50) * 1e6, 1),
                  TextTable::Num(Percentile(candidate_seconds, 50) * 1e6, 1)});
  }
  std::cout << "Option-space sizes (paper quotes |C| = 4341 for its tree)\n";
  table.Print(std::cout);
  return true;
}

// Ablation study of this implementation's own design choices (DESIGN.md §5) — what the
// paper's text motivates but does not measure directly:
//   (a) candidate pruning: Algorithm 1 over the pruned per-tensor candidate set vs the
//       full structural decision tree (quality vs selection-time trade-off, §4.4.2's
//       "eliminate a large number of suboptimal strategies");
//   (b) bubble elimination (Property 1): selection with Remove() on vs off;
//   (c) Algorithm 2's restricted search (Lemma 1) vs coordinate descent budgets;
//   (d) multi-start refinement: the single greedy trajectory vs the full Select();
//   (e) tensor fusion (MergeComp [69]) composed with selection.
// Each time is one run.
bool Ablation() {
  const ClusterSpec cluster = PcieCluster();
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "efsignsgd"});

  // ---- (a) candidate pruning ----
  {
    std::cout << "(a) Candidate pruning (VGG16, PCIe, EFSignSGD)\n";
    const ModelProfile model = Vgg16();
    const TreeConfig config{cluster.machines, cluster.gpus_per_machine, false};

    TextTable table({"Candidate set", "options", "selection (ms)", "iteration (ms)"});
    struct Variant {
      const char* label;
      std::vector<CompressionOption> candidates;
    };
    OptionSpace full_space = EnumerateOptions(config);
    Variant variants[] = {
        {"pruned (CandidateOptions)", CandidateOptions(config)},
        {"full structural tree", std::move(full_space.options)},
    };
    for (Variant& v : variants) {
      SelectorOptions options;
      options.candidates = std::move(v.candidates);
      const double t0 = Now();
      EspressoSelector selector(model, cluster, *compressor, options);
      const SelectionResult result = selector.Select();
      const double elapsed = Now() - t0;
      table.AddRow({v.label, std::to_string(options.candidates.size()),
                    TextTable::Num(elapsed * 1e3, 1),
                    TextTable::Num(result.iteration_time * 1e3, 2)});
    }
    table.Print(std::cout);
    std::cout << "Pruning trades a few percent of strategy quality for an order of "
                 "magnitude in selection time (the elimination step of §4.4.2).\n\n";
  }

  // ---- (b) bubble elimination ----
  {
    std::cout << "(b) Bubble elimination (Property 1) on/off (LSTM, PCIe)\n";
    const ModelProfile model = Lstm();
    TextTable table({"Remove()", "timeline evals", "selection (ms)", "iteration (ms)"});
    for (bool disabled : {false, true}) {
      SelectorOptions options;
      options.disable_bubble_elimination = disabled;
      const double t0 = Now();
      EspressoSelector selector(model, cluster, *compressor, options);
      const SelectionResult result = selector.Select();
      const double elapsed = Now() - t0;
      table.AddRow({disabled ? "off" : "on", std::to_string(result.telemetry.evaluations),
                    TextTable::Num(elapsed * 1e3, 2),
                    TextTable::Num(result.iteration_time * 1e3, 2)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  // ---- (c) offload search budget ----
  {
    std::cout << "(c) Algorithm 2 search: exhaustive product space vs coordinate descent "
                 "(BERT-base, NVLink, Random-k)\n";
    const ModelProfile model = BertBase();
    const ClusterSpec nvlink = NvlinkCluster();
    const auto randomk =
        CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.01});
    TextTable table({"Budget", "mode", "combinations", "offload (ms)", "iteration (ms)"});
    for (size_t budget : {size_t{64}, size_t{3000}, size_t{2000000}}) {
      SelectorOptions options;
      options.offload_search_budget = budget;
      EspressoSelector selector(model, nvlink, *randomk, options);
      const Strategy gpu = selector.SelectGpuCompression();
      size_t combos = 0;
      bool exact = true;
      const double t0 = Now();
      const Strategy offloaded = selector.OffloadToCpu(gpu, &combos, &exact);
      const double elapsed = Now() - t0;
      table.AddRow({std::to_string(budget), exact ? "exhaustive" : "descent",
                    std::to_string(combos), TextTable::Num(elapsed * 1e3, 1),
                    TextTable::Num(selector.evaluator().IterationTime(offloaded) * 1e3, 2)});
    }
    table.Print(std::cout);
    std::cout << "Descent reaches the exhaustive optimum at a fraction of the "
                 "combinations when the space is large.\n\n";
  }

  // ---- (d) multi-start refinement ----
  {
    std::cout << "(d) Single greedy trajectory vs full Select() (VGG16, PCIe)\n";
    const ModelProfile model = Vgg16();
    EspressoSelector selector(model, cluster, *compressor);
    const double t0 = Now();
    Strategy single = selector.SelectGpuCompression();
    single = selector.OffloadToCpu(single);
    const double single_elapsed = Now() - t0;
    const double t1 = Now();
    const SelectionResult full = selector.Select();
    const double full_elapsed = Now() - t1;
    TextTable table({"Pipeline", "selection (ms)", "iteration (ms)"});
    table.AddRow({"Algorithm 1 + 2 only", TextTable::Num(single_elapsed * 1e3, 1),
                  TextTable::Num(selector.evaluator().IterationTime(single) * 1e3, 2)});
    table.AddRow({"with refinement + multi-start", TextTable::Num(full_elapsed * 1e3, 1),
                  TextTable::Num(full.iteration_time * 1e3, 2)});
    table.Print(std::cout);
    std::cout << "The extra trajectories buy the Figure-15 dominance guarantee.\n\n";
  }

  // ---- (e) tensor fusion composed with selection ----
  {
    std::cout << "(e) Tensor fusion x Espresso (ResNet101, PCIe, DGC)\n";
    const ModelProfile model = ResNet101();
    const auto dgc = CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.01});
    TextTable table({"Bucket size", "tensors", "selection (ms)", "iteration (ms)"});
    for (size_t bucket_mb : {size_t{0}, size_t{1}, size_t{4}, size_t{16}}) {
      const ModelProfile fused = FuseTensors(model, bucket_mb * 1024 * 1024);
      const double t0 = Now();
      EspressoSelector selector(fused, cluster, *dgc);
      const SelectionResult result = selector.Select();
      const double elapsed = Now() - t0;
      table.AddRow({bucket_mb == 0 ? "none" : std::to_string(bucket_mb) + " MB",
                    std::to_string(fused.TensorCount()), TextTable::Num(elapsed * 1e3, 1),
                    TextTable::Num(result.iteration_time * 1e3, 2)});
    }
    table.Print(std::cout);
    std::cout << "Fusion collapses the per-tensor latency constants and shrinks the "
                 "selection problem; past the sweet spot it costs pipelining.\n";
  }
  return true;
}

// Scale-out projection (beyond the paper's 64 GPUs): §5.2.1 observes that "when DDL
// scales out, the computational overhead caused by compression also increases, and
// Espresso becomes more beneficial". This extends the Figure-12/13 sweeps to 128 and 256
// GPUs and checks that Espresso's margin over the best baseline is monotone
// non-decreasing in cluster size; a dip prints a NOTE and is not a failure.
bool ScaleOut() {
  struct Job {
    const char* model;
    const char* algorithm;
    bool pcie;
  };
  bool monotone = true;
  for (const Job& job : {Job{"bert-base", "randomk", false}, Job{"vgg16", "randomk", true}}) {
    const ModelProfile model = GetModel(job.model);
    const auto compressor =
        CreateCompressor(CompressorConfig{.algorithm = job.algorithm, .ratio = 0.01});
    std::cout << "--- " << job.model << " + " << job.algorithm << " on "
              << (job.pcie ? "PCIe/25G" : "NVLink/100G") << " ---\n";
    TextTable table({"GPUs", "FP32", "best baseline", "Espresso", "margin"});
    double previous_margin = 0.0;
    for (size_t machines : {4u, 8u, 16u, 32u}) {
      const ClusterSpec cluster =
          job.pcie ? PcieCluster(machines) : NvlinkCluster(machines);
      const double fp32 =
          RunScheme(model, cluster, *compressor, Scheme::kFp32).throughput;
      double best_baseline = fp32;
      for (Scheme scheme :
           {Scheme::kBytePSCompress, Scheme::kHiTopKComm, Scheme::kHiPress}) {
        best_baseline = std::max(
            best_baseline, RunScheme(model, cluster, *compressor, scheme).throughput);
      }
      const double espresso =
          RunScheme(model, cluster, *compressor, Scheme::kEspresso).throughput;
      const double margin = espresso / best_baseline - 1.0;
      if (margin + 1e-6 < previous_margin && machines > 4) {
        monotone = false;
      }
      previous_margin = std::max(previous_margin, margin);
      table.AddRow({std::to_string(machines * cluster.gpus_per_machine),
                    TextTable::Num(fp32, 0), TextTable::Num(best_baseline, 0),
                    TextTable::Num(espresso, 0), TextTable::Percent(margin, 1)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << (monotone
                    ? "Shape check PASSED: Espresso's margin over the best baseline does "
                      "not shrink as the cluster grows\n"
                    : "Shape check NOTE: margin dipped at some scale (see table)\n");
  return true;
}

// The three-tensor toy model of the motivating timelines.
ModelProfile ToyModel(double t0, double t1, double t2) {
  ModelProfile m;
  m.name = "toy";
  m.forward_time_s = 4e-3;
  m.optimizer_time_s = 1e-3;
  m.batch_size = 1;
  m.throughput_unit = "it/s";
  m.tensors = {{"T0", 8 << 20, t0}, {"T1", 8 << 20, t1}, {"T2", 8 << 20, t2}};
  return m;
}

void PrintTimeline(const TimelineEvaluator& evaluator, const Strategy& strategy,
                   const char* title) {
  const TimelineResult result = evaluator.Evaluate(strategy, true);
  std::printf("%s  (iteration %.2f ms)\n", title, result.iteration_time * 1e3);
  for (const auto& e : result.entries) {
    if (e.end - e.start < 1e-5) {
      continue;  // skip sub-10us ops for readability
    }
    std::printf("  %-6s T%zu %-14s %7.2f -> %7.2f ms\n", e.resource.c_str(), e.tensor,
                e.kind.c_str(), e.start * 1e3, e.end * 1e3);
  }
  std::printf("\n");
}

// The motivating scenarios of Figures 2, 5 and 9 on a three-tensor toy model, each
// printed as a timeline, showing why compression decisions depend on the interactions
// among tensors:
//   * Figure 2: different strategies on the same job — selective compression wins,
//     compressing everything on GPUs can lose.
//   * Figure 5: indivisible vs divisible schemes flip depending on overlap.
//   * Figure 9: compressing a tensor communicated before a bubble only widens the gap.
bool Timelines() {
  const auto compressor =
      CreateCompressor(CompressorConfig{.algorithm = "dgc", .ratio = 0.01});
  const ClusterSpec cluster = PcieCluster();

  // ---- Figure 2: strategies on a communication-bound job ----
  std::cout << "==== Figure 2: the choice of compression strategies determines the "
               "iteration time ====\n\n";
  ModelProfile model = ToyModel(6e-3, 6e-3, 6e-3);
  TimelineEvaluator evaluator(model, cluster, *compressor);

  const Strategy fp32 = Fp32Strategy(model, cluster);
  PrintTimeline(evaluator, fp32, "(a) baseline, no compression");

  Strategy only_t2 = fp32;
  only_t2.options[2] = InterOnlyIndivisibleOption(cluster, Device::kGpu);
  PrintTimeline(evaluator, only_t2, "(b) compress T2 with GPUs");

  const Strategy all_gpu =
      UniformStrategy(3, InterOnlyIndivisibleOption(cluster, Device::kGpu));
  PrintTimeline(evaluator, all_gpu, "(c) compress everything with GPUs");

  const Strategy all_cpu =
      UniformStrategy(3, InterOnlyIndivisibleOption(cluster, Device::kCpu));
  PrintTimeline(evaluator, all_cpu, "(d) compress everything with CPUs");

  EspressoSelector selector(model, cluster, *compressor);
  const SelectionResult espresso = selector.Select();
  PrintTimeline(evaluator, espresso.strategy, "(e) Espresso's strategy");
  std::printf("Espresso %.2f ms <= min(baseline %.2f, all-GPU %.2f, all-CPU %.2f) ms\n\n",
              espresso.iteration_time * 1e3, evaluator.IterationTime(fp32) * 1e3,
              evaluator.IterationTime(all_gpu) * 1e3, evaluator.IterationTime(all_cpu) * 1e3);

  // ---- Figure 9: bubbles ----
  std::cout << "==== Figure 9: tensors communicated before bubbles need no compression "
               "====\n\n";
  ModelProfile bubble_model = ToyModel(1e-3, 60e-3, 1e-3);
  TimelineEvaluator bubble_eval(bubble_model, cluster, *compressor);
  const Strategy bubble_fp32 = Fp32Strategy(bubble_model, cluster);
  PrintTimeline(bubble_eval, bubble_fp32, "(a) T1's long computation leaves a bubble after T0");
  const auto before = bubble_eval.BeforeBubble(bubble_fp32);
  std::printf("BeforeBubble flags: T0=%d T1=%d T2=%d (T0 is ahead of the bubble)\n\n",
              static_cast<int>(before[0]), static_cast<int>(before[1]),
              static_cast<int>(before[2]));

  Strategy compress_t0 = bubble_fp32;
  compress_t0.options[0] = InterOnlyIndivisibleOption(cluster, Device::kGpu);
  Strategy compress_t2 = bubble_fp32;
  compress_t2.options[2] = InterOnlyIndivisibleOption(cluster, Device::kGpu);
  std::printf("compressing T0 (before the bubble): %.2f ms\n",
              bubble_eval.IterationTime(compress_t0) * 1e3);
  std::printf("compressing T2 (after the bubble):  %.2f ms  <- the useful one\n\n",
              bubble_eval.IterationTime(compress_t2) * 1e3);

  // ---- Figure 5: indivisible vs divisible ----
  std::cout << "==== Figure 5: the right communication scheme depends on overlap ====\n\n";
  const Strategy indivisible =
      UniformStrategy(3, InterOnlyIndivisibleOption(cluster, Device::kGpu));
  const Strategy divisible =
      UniformStrategy(3, InterOnlyDivisibleOption(cluster, Device::kGpu));
  std::printf("communication-bound job: indivisible %.2f ms vs divisible %.2f ms\n",
              evaluator.IterationTime(indivisible) * 1e3,
              evaluator.IterationTime(divisible) * 1e3);
  ModelProfile overlap_model = ToyModel(2e-3, 80e-3, 2e-3);
  TimelineEvaluator overlap_eval(overlap_model, cluster, *compressor);
  std::printf("compute-heavy job:       indivisible %.2f ms vs divisible %.2f ms\n",
              overlap_eval.IterationTime(indivisible) * 1e3,
              overlap_eval.IterationTime(divisible) * 1e3);
  std::cout << "\nNeither scheme dominates: Espresso picks per tensor, per job (Reason #2).\n";
  return true;
}

struct Subcommand {
  const char* name;
  bool (*run)();      // false when the subcommand's shape check failed
  const char* check;  // the claim it checks, or nullptr when it only prints
};

constexpr Subcommand kSubcommands[] = {
    {"table1", Table1, nullptr},
    {"table5", Table5, nullptr},
    {"table6", Table6, nullptr},
    {"fig10", Figure10, "the GPU-compression benefit ratio increases with tensor size"},
    {"fig11", Figure11, nullptr},
    {"fig12", Figure12, nullptr},
    {"fig13", Figure13, nullptr},
    {"fig14", Figure14, nullptr},
    {"fig15", Figure15, "the full search space beats every crippled dimension"},
    {"fig16", Figure16, "compressed training stays within 5% of FP32 accuracy"},
    {"optionspace", OptionSpaceSizes, nullptr},
    {"ablation", Ablation, nullptr},
    {"scaleout", ScaleOut, nullptr},
    {"timelines", Timelines, nullptr},
};

int Usage() {
  std::cerr << "usage: espresso_paper <subcommand>\nsubcommands:";
  for (const Subcommand& subcommand : kSubcommands) {
    std::cerr << " " << subcommand.name;
  }
  std::cerr << " all\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    return Usage();
  }
  const std::string_view name = argv[1];
  if (name == "all") {
    std::vector<const Subcommand*> failed;
    for (const Subcommand& subcommand : kSubcommands) {
      std::cout << "==== espresso_paper " << subcommand.name << " ====\n";
      if (!subcommand.run()) {
        failed.push_back(&subcommand);
      }
      std::cout << "\n";
    }
    for (const Subcommand* subcommand : failed) {
      std::cerr << "espresso_paper: " << subcommand->name
                << " check failed: " << subcommand->check << "\n";
    }
    return failed.empty() ? 0 : 1;
  }
  for (const Subcommand& subcommand : kSubcommands) {
    if (name == subcommand.name) {
      return subcommand.run() ? 0 : 1;
    }
  }
  return Usage();
}
