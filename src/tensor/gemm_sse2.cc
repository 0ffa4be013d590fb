// SSE2 instantiation of the SIMD GEMM micro-kernels. SSE2 is part of the
// x86-64 baseline, so this TU needs no special flags — it is the floor every
// x86-64 host can run. The canonical lane count is kGemmLanes == 8 on every
// ISA, so the 4-lane registers are used in pairs: lanes 0-3 in `lo`, 4-7 in
// `hi`, giving bit-identical lane assignment to the AVX2 kernel.
#include "tensor/gemm.h"

#if !defined(KDDN_DISABLE_SIMD) && defined(__SSE2__)

#include <emmintrin.h>

#include "tensor/gemm_simd.h"

namespace kddn::detail {
namespace {

struct Sse2V {
  struct Reg {
    __m128 lo;
    __m128 hi;
  };
  static Reg Zero() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  static Reg Load(const float* p) {
    return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
  }
  static void Store(float* p, Reg r) {
    _mm_storeu_ps(p, r.lo);
    _mm_storeu_ps(p + 4, r.hi);
  }
  static Reg Broadcast(float v) {
    const __m128 s = _mm_set1_ps(v);
    return {s, s};
  }
  static Reg MulAdd(Reg acc, Reg a, Reg b) {
    return {_mm_add_ps(acc.lo, _mm_mul_ps(a.lo, b.lo)),
            _mm_add_ps(acc.hi, _mm_mul_ps(a.hi, b.hi))};
  }
  static Reg Add(Reg a, Reg b) {
    return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
  }
  static __m128 ZeroIfNegative(__m128 v) {
    return _mm_andnot_ps(_mm_cmplt_ps(v, _mm_setzero_ps()), v);
  }
  static Reg ZeroIfNegative(Reg v) {
    return {ZeroIfNegative(v.lo), ZeroIfNegative(v.hi)};
  }
  static __m128 KeepGreater(__m128 best, __m128 v) {
    const __m128 take = _mm_cmpgt_ps(v, best);
    return _mm_or_ps(_mm_and_ps(take, v), _mm_andnot_ps(take, best));
  }
  static Reg KeepGreater(Reg best, Reg v) {
    return {KeepGreater(best.lo, v.lo), KeepGreater(best.hi, v.hi)};
  }
};

}  // namespace

const GemmSimdKernels* GetGemmKernelsSse2() {
  static const GemmSimdKernels kernels = {
      &SimdGemm<Sse2V>::GemmNN, &SimdGemm<Sse2V>::GemmTN,
      &SimdGemm<Sse2V>::GemmNT, &SimdGemm<Sse2V>::BiasReluMax, "sse2"};
  return &kernels;
}

}  // namespace kddn::detail

#else

namespace kddn::detail {
const GemmSimdKernels* GetGemmKernelsSse2() { return nullptr; }
}  // namespace kddn::detail

#endif
