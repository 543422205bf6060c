// Internal: the two table getters and the arch gate that decides whether the AVX2
// translation unit has content. ESPRESSO_SIMD_DISABLED comes from CMake's
// -DESPRESSO_SIMD=OFF leg; the AVX2 TU then compiles to an empty object and the
// registry never references it.
#ifndef SRC_COMPRESS_KERNELS_TABLES_H_
#define SRC_COMPRESS_KERNELS_TABLES_H_

#include "src/compress/kernels/kernels.h"

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(ESPRESSO_SIMD_DISABLED)
#define ESPRESSO_KERNELS_X86 1
#endif

namespace espresso::kernels {

const KernelOps& ScalarTable();
#if ESPRESSO_KERNELS_X86
const KernelOps& Avx2Table();  // full (fp16 entries additionally gated on F16C)
#endif

}  // namespace espresso::kernels

#endif  // SRC_COMPRESS_KERNELS_TABLES_H_
