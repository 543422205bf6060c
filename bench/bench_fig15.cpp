// Figure 15: the importance of the entire search space. Each panel cripples one of the
// four dimensions and reruns the selection; the full four-dimensional Espresso always
// wins. VGG16 with 64 GPUs; NVLink machines for (a)-(c), EFSignSGD for (d) per the
// paper's setup; panel (d) uses the PCIe testbed to show the intra/inter trade-off.
#include <iostream>

#include "src/compress/compressor.h"
#include "src/core/baselines.h"
#include "src/core/espresso.h"
#include "src/ddl/experiment.h"
#include "src/models/model_zoo.h"
#include "src/util/table.h"

namespace {

using namespace espresso;

double ScalingOf(const ModelProfile& model, const ClusterSpec& cluster,
                 const Compressor& compressor, const Strategy& strategy) {
  return MeasureThroughput(model, cluster, compressor, strategy).scaling_factor;
}

// Prints one panel and returns whether the full search space won it.
bool Panel(const char* title, const ModelProfile& model, const ClusterSpec& cluster,
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
    const double scaling = ScalingOf(model, cluster, compressor, s);
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

}  // namespace

int main() {
  using namespace espresso;
  const ModelProfile model = GetModel("vgg16");
  const auto randomk =
      CreateCompressor(CompressorConfig{.algorithm = "randomk", .ratio = 0.01});
  const auto efsignsgd = CreateCompressor(CompressorConfig{.algorithm = "efsignsgd"});

  // The paper runs (a)-(c) on NVLink machines; on our calibration VGG16+NVLink is
  // compute-bound at 64 GPUs (every mechanism saturates at scaling 1.0), so the panels
  // use the PCIe testbed where the restricted spaces visibly separate — the claim under
  // test (full space >= every crippled space) is testbed-independent.
  std::cout << "Figure 15: crippling any dimension is never better (VGG16, 64 GPUs)\n\n";
  bool passed = true;
  passed &= Panel("(a) Restrict Dimension 1 (which tensors to compress) — PCIe + Randomk",
                  model, PcieCluster(), *randomk,
                  {{"All compression", CrippledDimension::kAllCompression},
                   {"Myopic compression", CrippledDimension::kMyopicCompression}});
  passed &= Panel("(b) Restrict Dimension 2 (compute resource) — PCIe + Randomk", model,
                  PcieCluster(), *randomk,
                  {{"GPU compression only", CrippledDimension::kGpuCompression},
                   {"CPU compression only", CrippledDimension::kCpuCompression}});
  passed &= Panel("(c) Restrict Dimension 3 (communication scheme) — PCIe + Randomk", model,
                  PcieCluster(), *randomk,
                  {{"Inter Allgather", CrippledDimension::kInterAllgather},
                   {"Inter Alltoall", CrippledDimension::kInterAlltoall}});
  passed &= Panel("(d) Restrict Dimension 4 (compression choice) — PCIe + EFSignSGD", model,
                  PcieCluster(), *efsignsgd,
                  {{"Inter Alltoall", CrippledDimension::kInterAlltoall},
                   {"Alltoall+Alltoall", CrippledDimension::kAlltoallAlltoall}});
  return passed ? 0 : 1;
}
