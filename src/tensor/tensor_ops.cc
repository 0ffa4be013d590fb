#include "tensor/tensor_ops.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/trace.h"
#include "tensor/gemm.h"
#include "tensor/tensor_pool.h"

namespace kddn {
namespace {

void CheckRank2(const Tensor& t, const char* name) {
  KDDN_CHECK_EQ(t.rank(), 2) << name << " must be rank-2, got "
                             << t.ShapeString();
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  KDDN_CHECK(a.SameShape(b)) << op << ": shape mismatch " << a.ShapeString()
                             << " vs " << b.ShapeString();
}

std::atomic<GemmKernel> g_gemm_kernel{GemmKernel::kAuto};

using GemmFn = detail::GemmFn;

std::atomic<bool> g_gemm_timing_enabled{false};
std::atomic<uint64_t> g_gemm_timing_calls{0};
std::atomic<uint64_t> g_gemm_timing_ns{0};

/// Runs `fn` over all m output rows. C must already be zero-filled (the
/// kernels accumulate). A GEMM never fans out: parallelism lives one level
/// up, across examples, requests and patients, whose loops run in executor
/// lanes (DESIGN.md §5).
void DispatchGemm(GemmFn fn, const float* a, const float* b, float* c, int m,
                  int k, int n) {
  KDDN_TRACE_SPAN("gemm.block");
  const bool timing = g_gemm_timing_enabled.load(std::memory_order_relaxed);
  const auto start = timing ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point();
  fn(a, b, c, m, k, n, 0, m);
  if (timing) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    g_gemm_timing_calls.fetch_add(1, std::memory_order_relaxed);
    g_gemm_timing_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
        std::memory_order_relaxed);
  }
}

GemmFn PickNN() {
  switch (g_gemm_kernel.load(std::memory_order_relaxed)) {
    case GemmKernel::kScalar:
      return detail::GemmNNScalar;
    case GemmKernel::kNaive:
      return detail::GemmNNNaive;
    case GemmKernel::kAuto:
      break;
  }
  return detail::ActiveGemmImpl().nn;
}

GemmFn PickTN() {
  switch (g_gemm_kernel.load(std::memory_order_relaxed)) {
    case GemmKernel::kScalar:
      return detail::GemmTNScalar;
    case GemmKernel::kNaive:
      return detail::GemmTNNaive;
    case GemmKernel::kAuto:
      break;
  }
  return detail::ActiveGemmImpl().tn;
}

GemmFn PickNT() {
  switch (g_gemm_kernel.load(std::memory_order_relaxed)) {
    case GemmKernel::kScalar:
      return detail::GemmNTScalar;
    case GemmKernel::kNaive:
      return detail::GemmNTNaive;
    case GemmKernel::kAuto:
      break;
  }
  return detail::ActiveGemmImpl().nt;
}

/// Reshapes `*out` to `shape` reusing its storage (no data preserved), then
/// zero-fills it ready for an accumulating GEMM kernel.
void PrepareOut(Tensor* out, std::vector<int> shape) {
  KDDN_CHECK(out != nullptr);
  *out = Tensor::AdoptStorage(std::move(shape), std::move(*out).TakeStorage());
  out->Fill(0.0f);
}

struct MatMulDims {
  int m, k, n;
};

MatMulDims CheckMatMul(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMul lhs");
  CheckRank2(b, "MatMul rhs");
  KDDN_CHECK_EQ(a.dim(1), b.dim(0))
      << "MatMul inner-dimension mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  return {a.dim(0), a.dim(1), b.dim(1)};
}

MatMulDims CheckMatMulAtB(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMulAtB lhs");
  CheckRank2(b, "MatMulAtB rhs");
  KDDN_CHECK_EQ(a.dim(0), b.dim(0))
      << "MatMulAtB shared-dimension mismatch " << a.ShapeString() << " vs "
      << b.ShapeString();
  return {a.dim(1), a.dim(0), b.dim(1)};
}

MatMulDims CheckMatMulABt(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMulABt lhs");
  CheckRank2(b, "MatMulABt rhs");
  KDDN_CHECK_EQ(a.dim(1), b.dim(1))
      << "MatMulABt shared-dimension mismatch " << a.ShapeString() << " vs "
      << b.ShapeString();
  return {a.dim(0), a.dim(1), b.dim(0)};
}

// Deliberately scalar — not routed through the GEMM lane-split helpers
// (DESIGN.md §9). The row max is a sequential std::max chain whose NaN
// semantics (first operand wins) differ from vector min/max lane rules, so a
// lane-split max is not bitwise-safe in general; and the exp sum accumulates
// in double precision, where an 8-way float-style lane split would change
// both the type and the rounding of every partial. Neither loop is on the
// GEMM-dominated hot path: exp() dwarfs both.
void SoftmaxRowsImpl(const Tensor& a, Tensor* out) {
  const int m = a.dim(0), n = a.dim(1);
  const float* ap = a.data();
  float* op = out->data();
  for (int i = 0; i < m; ++i) {
    const float* arow = ap + static_cast<int64_t>(i) * n;
    float* orow = op + static_cast<int64_t>(i) * n;
    float row_max = arow[0];
    for (int j = 1; j < n; ++j) {
      row_max = std::max(row_max, arow[j]);
    }
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      const float e = std::exp(arow[j] - row_max);
      orow[j] = e;
      total += e;
    }
    const float inv = static_cast<float>(1.0 / total);
    for (int j = 0; j < n; ++j) {
      orow[j] *= inv;
    }
  }
}

}  // namespace

void SetGemmKernel(GemmKernel kernel) {
  g_gemm_kernel.store(kernel, std::memory_order_relaxed);
}

GemmKernel GetGemmKernel() {
  return g_gemm_kernel.load(std::memory_order_relaxed);
}

const char* GemmKernelName(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kScalar:
      return "scalar";
    case GemmKernel::kNaive:
      return "naive";
    case GemmKernel::kAuto:
      break;
  }
  return "auto";
}

const char* ActiveGemmIsa() { return detail::GemmIsaName(); }

void SetGemmTimingEnabled(bool enabled) {
  g_gemm_timing_enabled.store(enabled, std::memory_order_relaxed);
}

void ResetGemmTiming() {
  g_gemm_timing_calls.store(0, std::memory_order_relaxed);
  g_gemm_timing_ns.store(0, std::memory_order_relaxed);
}

GemmTimingStats GetGemmTiming() {
  return {g_gemm_timing_calls.load(std::memory_order_relaxed),
          g_gemm_timing_ns.load(std::memory_order_relaxed)};
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMul(a, b);
  Tensor out = TensorPool::ThreadLocal().Acquire({d.m, d.n});
  DispatchGemm(PickNN(), a.data(), b.data(), out.data(), d.m, d.k, d.n);
  return out;
}

Tensor MatMulAtB(const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulAtB(a, b);
  Tensor out = TensorPool::ThreadLocal().Acquire({d.m, d.n});
  DispatchGemm(PickTN(), a.data(), b.data(), out.data(), d.m, d.k, d.n);
  return out;
}

Tensor MatMulABt(const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulABt(a, b);
  Tensor out = TensorPool::ThreadLocal().Acquire({d.m, d.n});
  DispatchGemm(PickNT(), a.data(), b.data(), out.data(), d.m, d.k, d.n);
  return out;
}

void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMul(a, b);
  KDDN_CHECK(out != &a && out != &b) << "MatMulInto: out aliases an input";
  PrepareOut(out, {d.m, d.n});
  DispatchGemm(PickNN(), a.data(), b.data(), out->data(), d.m, d.k, d.n);
}

void MatMulAtBInto(Tensor* out, const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulAtB(a, b);
  KDDN_CHECK(out != &a && out != &b) << "MatMulAtBInto: out aliases an input";
  PrepareOut(out, {d.m, d.n});
  DispatchGemm(PickTN(), a.data(), b.data(), out->data(), d.m, d.k, d.n);
}

void MatMulABtInto(Tensor* out, const Tensor& a, const Tensor& b) {
  const MatMulDims d = CheckMatMulABt(a, b);
  KDDN_CHECK(out != &a && out != &b) << "MatMulABtInto: out aliases an input";
  PrepareOut(out, {d.m, d.n});
  DispatchGemm(PickNT(), a.data(), b.data(), out->data(), d.m, d.k, d.n);
}

void BiasReluMaxOverTime(const Tensor& feature_map, const Tensor& bias,
                         float* out) {
  CheckRank2(feature_map, "BiasReluMaxOverTime input");
  const int rows = feature_map.dim(0), n = feature_map.dim(1);
  KDDN_CHECK_GT(rows, 0) << "BiasReluMaxOverTime over zero rows";
  KDDN_CHECK_EQ(bias.size(), n) << "BiasReluMaxOverTime bias width mismatch";
  const detail::ConvEpilogueFn fn =
      g_gemm_kernel.load(std::memory_order_relaxed) == GemmKernel::kAuto
          ? detail::ActiveGemmImpl().bias_relu_max
          : detail::BiasReluMaxScalar;
  fn(feature_map.data(), bias.data(), out, rows, n);
}

Tensor Transpose(const Tensor& a) {
  CheckRank2(a, "Transpose");
  const int m = a.dim(0), n = a.dim(1);
  // Every element is written below, so uninitialised storage is safe.
  Tensor out = TensorPool::ThreadLocal().AcquireUninit({n, m});
  const float* ap = a.data();
  float* op = out.data();
  // Pure data movement: there is no accumulation here, so the lane-split
  // order contract is vacuous and any vectorisation is trivially bitwise-
  // safe — the compiler's auto-vectoriser is free to (and does) use it.
  // Square tiling keeps one side of the scattered accesses cache-resident;
  // 32x32 float tiles are 4 KiB from each matrix.
  constexpr int kTile = 32;
  for (int ib = 0; ib < m; ib += kTile) {
    const int iend = std::min(m, ib + kTile);
    for (int jb = 0; jb < n; jb += kTile) {
      const int jend = std::min(n, jb + kTile);
      for (int i = ib; i < iend; ++i) {
        const float* arow = ap + static_cast<int64_t>(i) * n;
        for (int j = jb; j < jend; ++j) {
          op[static_cast<int64_t>(j) * m + i] = arow[j];
        }
      }
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  AddInPlace(&out, b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  float* op = out.data();
  const float* bp = b.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] -= bp[i];
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  float* op = out.data();
  const float* bp = b.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] *= bp[i];
  }
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] *= s;
  }
  return out;
}

void AddInPlace(Tensor* a, const Tensor& b) {
  CheckSameShape(*a, b, "AddInPlace");
  float* ap = a->data();
  const float* bp = b.data();
  for (int64_t i = 0; i < a->size(); ++i) {
    ap[i] += bp[i];
  }
}

void AxpyInPlace(Tensor* a, float s, const Tensor& b) {
  CheckSameShape(*a, b, "AxpyInPlace");
  float* ap = a->data();
  const float* bp = b.data();
  for (int64_t i = 0; i < a->size(); ++i) {
    ap[i] += s * bp[i];
  }
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  CheckRank2(a, "AddRowBroadcast input");
  KDDN_CHECK_EQ(row.rank(), 1) << "AddRowBroadcast row must be rank-1";
  const int m = a.dim(0), n = a.dim(1);
  KDDN_CHECK_EQ(n, row.dim(0)) << "AddRowBroadcast width mismatch";
  Tensor out = TensorPool::ThreadLocal().AcquireCopy(a);
  float* op = out.data();
  const float* rp = row.data();
  for (int i = 0; i < m; ++i) {
    float* orow = op + static_cast<int64_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      orow[j] += rp[j];
    }
  }
  return out;
}

float Sum(const Tensor& a) {
  double acc = 0.0;
  const float* ap = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += ap[i];
  }
  return static_cast<float>(acc);
}

float Mean(const Tensor& a) {
  KDDN_CHECK_GT(a.size(), 0) << "Mean of empty tensor";
  return Sum(a) / static_cast<float>(a.size());
}

float MaxValue(const Tensor& a) {
  KDDN_CHECK_GT(a.size(), 0) << "MaxValue of empty tensor";
  return *std::max_element(a.data(), a.data() + a.size());
}

Tensor SoftmaxRows(const Tensor& a) {
  CheckRank2(a, "SoftmaxRows");
  const int m = a.dim(0), n = a.dim(1);
  KDDN_CHECK_GT(n, 0) << "SoftmaxRows over zero-width rows";
  Tensor out = TensorPool::ThreadLocal().AcquireUninit({m, n});
  SoftmaxRowsImpl(a, &out);
  return out;
}

void SoftmaxRowsInto(Tensor* out, const Tensor& a) {
  CheckRank2(a, "SoftmaxRows");
  const int m = a.dim(0), n = a.dim(1);
  KDDN_CHECK_GT(n, 0) << "SoftmaxRows over zero-width rows";
  KDDN_CHECK(out != nullptr && out != &a)
      << "SoftmaxRowsInto: out aliases the input";
  *out = Tensor::AdoptStorage({m, n}, std::move(*out).TakeStorage());
  SoftmaxRowsImpl(a, out);
}

float SquaredNorm(const Tensor& a) {
  double acc = 0.0;
  const float* ap = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(ap[i]) * ap[i];
  }
  return static_cast<float>(acc);
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "MaxAbsDiff");
  float worst = 0.0f;
  const float* ap = a.data();
  const float* bp = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(ap[i] - bp[i]));
  }
  return worst;
}

Tensor RandomNormal(std::vector<int> shape, float mean, float stddev,
                    Rng* rng) {
  KDDN_CHECK(rng != nullptr);
  Tensor out(std::move(shape));
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return out;
}

Tensor RandomUniform(std::vector<int> shape, float lo, float hi, Rng* rng) {
  KDDN_CHECK(rng != nullptr);
  Tensor out(std::move(shape));
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) {
    op[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return out;
}

}  // namespace kddn
