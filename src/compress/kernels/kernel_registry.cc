// Runtime ISA dispatch: detect whether the host executes AVX2 and hand out the table
// everything compresses through.
#include "src/compress/kernels/tables.h"

namespace espresso::kernels {

namespace {

// Test/bench override; read on every Active() call (cheap: one load + branch).
const KernelOps* g_forced = nullptr;

}  // namespace

const KernelOps& Scalar() { return ScalarTable(); }

const std::vector<const KernelOps*>& SupportedOps() {
  static const std::vector<const KernelOps*> tables = [] {
    std::vector<const KernelOps*> t;
    t.push_back(&ScalarTable());
#if ESPRESSO_KERNELS_X86
    if (__builtin_cpu_supports("avx2")) {
      t.push_back(&Avx2Table());
    }
#endif
    return t;
  }();
  return tables;
}

const KernelOps& Active() {
  if (g_forced != nullptr) {
    return *g_forced;
  }
  static const KernelOps* chosen = SupportedOps().back();  // scalar, then AVX2
  return *chosen;
}

void SetActiveForTesting(const KernelOps* ops) { g_forced = ops; }

std::vector<const char*> HostIsaFeatures() {
  std::vector<const char*> features;
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("sse2")) {
    features.push_back("sse2");
  }
  if (__builtin_cpu_supports("avx")) {
    features.push_back("avx");
  }
  if (__builtin_cpu_supports("avx2")) {
    features.push_back("avx2");
  }
  if (__builtin_cpu_supports("f16c")) {
    features.push_back("f16c");
  }
  if (__builtin_cpu_supports("fma")) {
    features.push_back("fma");
  }
  if (__builtin_cpu_supports("avx512f")) {
    features.push_back("avx512f");
  }
#elif defined(__aarch64__)
  features.push_back("neon");
#endif
  return features;
}

}  // namespace espresso::kernels
