#ifndef KDDN_TENSOR_TENSOR_OPS_H_
#define KDDN_TENSOR_TENSOR_OPS_H_

#include "common/rng.h"
#include "tensor/tensor.h"

namespace kddn {

/// Which GEMM implementation the three MatMul entry points dispatch to.
///
///  - kAuto (default): the blocked SIMD kernels, selected once per process
///    by runtime CPU-feature detection (AVX2 > SSE2 > NEON, falling back to
///    the scalar lane-faithful reference; the KDDN_FORCE_SCALAR_GEMM
///    environment variable forces the fallback).
///  - kScalar: the scalar lane-faithful reference — plain C++ emulating the
///    identical canonical accumulation order, so its results are bitwise
///    equal to kAuto on every host, with or without the ISA.
///  - kNaive: the original element-at-a-time loops (with their
///    data-dependent zero skip), kept as the "before" wall-clock baseline of
///    the training microbench. Matches the canonical order for the NN/TN
///    forms on finite inputs, but NOT for the A*B^T form (whose canonical
///    order is the lane-split reduction); see src/tensor/gemm.h.
enum class GemmKernel { kAuto, kScalar, kNaive };

/// Sets the process-wide GEMM dispatch mode (atomic; default kAuto).
/// Intended for tests and benchmarks, not concurrent flipping mid-training.
void SetGemmKernel(GemmKernel kernel);
GemmKernel GetGemmKernel();

/// Lowercase name of the dispatch mode: "auto", "scalar", or "naive".
const char* GemmKernelName(GemmKernel kernel);

/// Name of the kernel set kAuto dispatches to on this host ("avx2", "sse2",
/// "neon", or "scalar"), resolved once per process. Surfaced through
/// `GET /v1/stats` and the microbench JSON so hosts report what they run.
const char* ActiveGemmIsa();

/// Opt-in GEMM wall-clock accounting. The training microbench uses this to
/// measure the GEMM share of a real run in situ: `blocked_gemm_speedup` in
/// BENCH_train.json is the ratio of accumulated GEMM nanoseconds between
/// kernel modes on the identical workload, undiluted by the non-GEMM epoch
/// cost. Disabled (the default) it costs one relaxed atomic load per matmul
/// — the same fast-path budget as a disabled trace span. Enabled it adds two
/// steady_clock reads around each dispatch (tens of ns against multi-µs
/// kernels). Counters are process-wide and atomically accumulated, so
/// concurrent matmuls from pool workers are counted correctly.
struct GemmTimingStats {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
};
void SetGemmTimingEnabled(bool enabled);
void ResetGemmTiming();
GemmTimingStats GetGemmTiming();

/// Matrix product A[m,k] * B[k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// A^T * B for A[k,m], B[k,n] -> [m,n] (without materialising A^T).
Tensor MatMulAtB(const Tensor& a, const Tensor& b);

/// A * B^T for A[m,k], B[n,k] -> [m,n] (without materialising B^T).
Tensor MatMulABt(const Tensor& a, const Tensor& b);

/// Destination-reusing variants: write the product into `*out`, reusing its
/// storage when the capacity fits (the shape is overwritten). Serving keeps
/// workspace tensors alive across requests and calls these so the hot path
/// never allocates. Results are bitwise identical to the allocating forms.
void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b);
void MatMulAtBInto(Tensor* out, const Tensor& a, const Tensor& b);
void MatMulABtInto(Tensor* out, const Tensor& a, const Tensor& b);

/// Row-wise softmax into `*out` (storage reused like MatMulInto).
void SoftmaxRowsInto(Tensor* out, const Tensor& a);

/// Convolution epilogue: out[f] = max over rows r of
/// relu(feature_map[r, f] + bias[f]), bitwise what ag::AddRowBroadcast ->
/// ag::Relu -> ag::MaxOverTime produce (src/tensor/gemm.h states the exact
/// comparisons). `out` receives feature_map.dim(1) floats. Dispatched with
/// the MatMul forms: kAuto runs the host's SIMD kernel, kScalar and kNaive
/// the scalar reference — the same bits either way.
void BiasReluMaxOverTime(const Tensor& feature_map, const Tensor& bias,
                         float* out);

/// Matrix transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Scalar multiple.
Tensor Scale(const Tensor& a, float s);

/// In-place a += b; shapes must match.
void AddInPlace(Tensor* a, const Tensor& b);

/// In-place a += s * b; shapes must match.
void AxpyInPlace(Tensor* a, float s, const Tensor& b);

/// Adds a row vector to every row: a[m,n] + row[n] -> [m,n].
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);

/// Sum of all elements.
float Sum(const Tensor& a);

/// Mean of all elements; tensor must be non-empty.
float Mean(const Tensor& a);

/// Largest element; tensor must be non-empty.
float MaxValue(const Tensor& a);

/// Row-wise softmax of a rank-2 tensor (numerically stabilised).
Tensor SoftmaxRows(const Tensor& a);

/// Squared L2 norm of all elements.
float SquaredNorm(const Tensor& a);

/// Max absolute elementwise difference between two same-shaped tensors.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

/// Tensor with i.i.d. N(mean, stddev) entries.
Tensor RandomNormal(std::vector<int> shape, float mean, float stddev,
                    Rng* rng);

/// Tensor with i.i.d. Uniform[lo, hi) entries.
Tensor RandomUniform(std::vector<int> shape, float lo, float hi, Rng* rng);

}  // namespace kddn

#endif  // KDDN_TENSOR_TENSOR_OPS_H_
