// AVX2 instantiation of the SIMD GEMM micro-kernels. This TU — and only
// this TU — is compiled with -mavx2 (src/CMakeLists.txt), so the factory
// below may only be *called* after runtime dispatch has confirmed the host
// supports AVX2; everything outside the #if builds on the baseline ISA.
//
// Deliberately no -mfma and no FMA intrinsics: MulAdd is a rounded multiply
// followed by a rounded add, keeping every lane bit-equal to the scalar
// reference (DESIGN.md §9).
#include "tensor/gemm.h"

#if !defined(KDDN_DISABLE_SIMD) && defined(__AVX2__)

#include <immintrin.h>

#include "tensor/gemm_simd.h"

namespace kddn::detail {
namespace {

struct Avx2V {
  using Reg = __m256;
  static Reg Zero() { return _mm256_setzero_ps(); }
  static Reg Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Reg r) { _mm256_storeu_ps(p, r); }
  static Reg Broadcast(float v) { return _mm256_set1_ps(v); }
  static Reg MulAdd(Reg acc, Reg a, Reg b) {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg ZeroIfNegative(Reg v) {
    return _mm256_andnot_ps(
        _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ), v);
  }
  static Reg KeepGreater(Reg best, Reg v) {
    return _mm256_blendv_ps(best, v, _mm256_cmp_ps(v, best, _CMP_GT_OQ));
  }
};

}  // namespace

const GemmSimdKernels* GetGemmKernelsAvx2() {
  static const GemmSimdKernels kernels = {
      &SimdGemm<Avx2V>::GemmNN, &SimdGemm<Avx2V>::GemmTN,
      &SimdGemm<Avx2V>::GemmNT, &SimdGemm<Avx2V>::BiasReluMax, "avx2"};
  return &kernels;
}

}  // namespace kddn::detail

#else

namespace kddn::detail {
const GemmSimdKernels* GetGemmKernelsAvx2() { return nullptr; }
}  // namespace kddn::detail

#endif
