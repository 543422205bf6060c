// The always-available scalar kernel table: thin wrappers over the scalar_ref.h
// reference implementations. This TU is compiled with the project's baseline flags
// only — it must run on any host the binary reaches.
#include "src/compress/kernels/scalar_ref.h"
#include "src/compress/kernels/tables.h"

namespace espresso::kernels {

namespace {

double ScalarSumSquares(const float* x, size_t n) {
  double acc[kReductionLanes] = {};
  RefSumSquaresLanes(x, 0, n, acc);
  return RefFoldLanes(acc);
}

double ScalarSumAbs(const float* x, size_t n) {
  double acc[kReductionLanes] = {};
  RefSumAbsLanes(x, 0, n, acc);
  return RefFoldLanes(acc);
}

float ScalarMaxAbs(const float* x, size_t n) { return RefMaxAbsRange(x, 0, n, 0.0f); }

void ScalarAbsBits(const float* x, size_t n, uint32_t* out) {
  RefAbsBitsRange(x, 0, n, out);
}

size_t ScalarSelectTopK(const float* x, size_t n, uint32_t t, size_t n_fill,
                        uint32_t* indices, float* values) {
  return RefSelectTopK(x, n, t, n_fill, indices, values);
}

void ScalarQsgd(const float* x, size_t n, float norm, int levels, uint32_t k0,
                uint32_t k1, uint8_t* codes) {
  RefQsgdRange(x, 0, n, norm, levels, k0, k1, codes);
}

void ScalarTernGrad(const float* x, size_t n, float max_abs, uint32_t k0, uint32_t k1,
                    uint8_t* packed) {
  RefTernGradRange(x, 0, n, max_abs, k0, k1, packed);
}

void ScalarSignPack(const float* x, size_t n, uint8_t* packed) {
  RefSignPackRange(x, 0, n, packed);
}

void ScalarFp16Encode(const float* x, size_t n, uint16_t* out) {
  RefFp16EncodeRange(x, 0, n, out);
}

void ScalarFp16DecodeAdd(const uint16_t* in, size_t n, float* out) {
  RefFp16DecodeAddRange(in, 0, n, out);
}

}  // namespace

const KernelOps& ScalarTable() {
  static const KernelOps table = [] {
    KernelOps ops;
    ops.isa = "scalar";
    ops.sum_squares = ScalarSumSquares;
    ops.sum_abs = ScalarSumAbs;
    ops.max_abs = ScalarMaxAbs;
    ops.abs_bits = ScalarAbsBits;
    ops.select_topk = ScalarSelectTopK;
    ops.qsgd_quantize = ScalarQsgd;
    ops.terngrad_quantize = ScalarTernGrad;
    ops.sign_pack = ScalarSignPack;
    ops.fp16_encode = ScalarFp16Encode;
    ops.fp16_decode_add = ScalarFp16DecodeAdd;
    return ops;
  }();
  return table;
}

}  // namespace espresso::kernels
