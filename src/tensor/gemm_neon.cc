// NEON (aarch64 Advanced SIMD) instantiation of the SIMD GEMM micro-kernels.
// ASIMD is architecturally mandatory on aarch64, so no special flags. Like
// SSE2, the 4-lane registers run in pairs to realise the canonical 8-lane
// split.
//
// MulAdd deliberately avoids vmlaq_f32 / vfmaq_f32: on aarch64 those lower to
// FMLA, a *fused* multiply-add with a single rounding, which would break
// bit-equality with the scalar reference. vaddq(vmulq(...)) keeps the two
// roundings.
#include "tensor/gemm.h"

#if !defined(KDDN_DISABLE_SIMD) && defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "tensor/gemm_simd.h"

namespace kddn::detail {
namespace {

struct NeonV {
  struct Reg {
    float32x4_t lo;
    float32x4_t hi;
  };
  static Reg Zero() { return {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)}; }
  static Reg Load(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  static void Store(float* p, Reg r) {
    vst1q_f32(p, r.lo);
    vst1q_f32(p + 4, r.hi);
  }
  static Reg Broadcast(float v) {
    const float32x4_t s = vdupq_n_f32(v);
    return {s, s};
  }
  static Reg MulAdd(Reg acc, Reg a, Reg b) {
    return {vaddq_f32(acc.lo, vmulq_f32(a.lo, b.lo)),
            vaddq_f32(acc.hi, vmulq_f32(a.hi, b.hi))};
  }
  static Reg Add(Reg a, Reg b) {
    return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
  }
  static float32x4_t ZeroIfNegative(float32x4_t v) {
    const float32x4_t zero = vdupq_n_f32(0.0f);
    return vbslq_f32(vcltq_f32(v, zero), zero, v);
  }
  static Reg ZeroIfNegative(Reg v) {
    return {ZeroIfNegative(v.lo), ZeroIfNegative(v.hi)};
  }
  static float32x4_t KeepGreater(float32x4_t best, float32x4_t v) {
    return vbslq_f32(vcgtq_f32(v, best), v, best);
  }
  static Reg KeepGreater(Reg best, Reg v) {
    return {KeepGreater(best.lo, v.lo), KeepGreater(best.hi, v.hi)};
  }
};

}  // namespace

const GemmSimdKernels* GetGemmKernelsNeon() {
  static const GemmSimdKernels kernels = {
      &SimdGemm<NeonV>::GemmNN, &SimdGemm<NeonV>::GemmTN,
      &SimdGemm<NeonV>::GemmNT, &SimdGemm<NeonV>::BiasReluMax, "neon"};
  return &kernels;
}

}  // namespace kddn::detail

#else

namespace kddn::detail {
const GemmSimdKernels* GetGemmKernelsNeon() { return nullptr; }
}  // namespace kddn::detail

#endif
