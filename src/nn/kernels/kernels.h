#ifndef O2SR_NN_KERNELS_KERNELS_H_
#define O2SR_NN_KERNELS_KERNELS_H_

#include <cstdint>

namespace o2sr::nn::kernels {

// Vectorized compute primitives behind the tape/plan executors.
//
// Two implementations of every vector-friendly kernel are compiled from the
// same source (kernels_impl.inl): a scalar/SSE2 baseline TU and an AVX2 TU
// built with -mavx2 (never -mfma: a fused multiply-add would change
// rounding and break the bit-exactness contract). Because both TUs compile
// identical per-element expressions and every loop either writes disjoint
// elements or keeps its accumulation order, the two tables produce
// bit-identical results — vectorization only changes how many disjoint
// elements are in flight, never the arithmetic applied to each one.
// DESIGN.md §13 documents the contract.
//
// Dispatch: Active() resolves once per process from O2SR_SIMD
//   off / scalar — force the baseline table
//   avx2         — force AVX2 (aborts if the CPU lacks it)
//   auto / unset — probe the CPU (__builtin_cpu_supports)
//
// Kernels that cannot be vectorized without changing results (libm calls,
// ordered double-precision accumulations, scatter loops) have a single
// shared implementation in kernels_common.cc.

enum class Simd { kScalar, kAvx2 };

// The active SIMD level, resolved once (env + cpuid).
Simd ActiveSimd();
const char* SimdName(Simd level);

// Vector-friendly kernels, one entry per primitive. Row-major matrices.
// Range arguments ([begin, end) over flat elements or output rows) let the
// executor chunk a kernel across exec::ThreadPool lanes; every chunk's
// writes are disjoint.
struct KernelTable {
  // --- dense matmul family (ranges are output rows) ---
  // C[i,:] (+)= A[i,:] * B.  A: [m x k], B: [k x n]. The reference loop
  // skips zero A entries; that skip shows only when B holds ±Inf or NaN
  // (0 * Inf = NaN), so a SIMD body may add every term while B is finite
  // and must run the reference otherwise (DESIGN.md §13; matmul_ta_rows
  // likewise). accumulate=false stores each sum. The three kernels' sums
  // start at +0 and so are never -0, which makes that store equal 0.0f +
  // sum: the first-write rule of the acc_* kernels below.
  void (*matmul_rows)(const float* a, const float* b, float* c,
                      int64_t row_begin, int64_t row_end, int k, int n,
                      bool accumulate);
  // C[i,:] (+)= sum_p A[p,i] * B[p,:].  A: [k x m], B: [k x n]; `m` is the
  // full output row count (the stride of A's rows). The row sum is built in
  // a scratch row then applied, so accumulate mode matches the reference
  // temp-then-add bit for bit.
  void (*matmul_ta_rows)(const float* a, const float* b, float* c,
                         int64_t row_begin, int64_t row_end, int m, int k,
                         int n, bool accumulate);
  // C[i,j] (+)= dot(A[i,:], B[j,:]) with four accumulator chains folded as
  // (c0+c1)+(c2+c3).  A: [m x k], B: [n x k].
  void (*matmul_tb_rows)(const float* a, const float* b, float* c,
                         int64_t row_begin, int64_t row_end, int k, int n,
                         bool accumulate);

  // --- elementwise (ranges over flat elements) ---
  void (*add)(const float* a, const float* b, float* out, int64_t begin,
              int64_t end);
  void (*sub)(const float* a, const float* b, float* out, int64_t begin,
              int64_t end);
  void (*mul)(const float* a, const float* b, float* out, int64_t begin,
              int64_t end);
  void (*scale)(const float* a, float s, float* out, int64_t begin,
                int64_t end);
  // The acc_* kernels add one gradient term v per element: dst[i] += v.
  // With accumulate=false the call is the slot's first writer and stores
  // 0.0f + v instead, bit for bit what adding v to a zeroed slot gives,
  // without reading dst (the planned executor hands the first writer a
  // stale pooled buffer; DESIGN.md §13). acc_sub stores 0.0f - v likewise.
  void (*acc_add)(float* dst, const float* src, int64_t begin, int64_t end,
                  bool accumulate);
  void (*acc_sub)(float* dst, const float* src, int64_t begin, int64_t end,
                  bool accumulate);
  void (*acc_scale)(float* dst, const float* src, float s, int64_t begin,
                    int64_t end, bool accumulate);
  // dst[i] += g[i] * m[i]  (dropout/mul backward)
  void (*acc_mul)(float* dst, const float* g, const float* m, int64_t begin,
                  int64_t end, bool accumulate);
  void (*acc_const)(float* dst, float c, int64_t begin, int64_t end,
                    bool accumulate);
  void (*relu)(const float* x, float* out, int64_t begin, int64_t end);
  void (*leaky_relu)(const float* x, float slope, float* out, int64_t begin,
                     int64_t end);
  // gx[i] += g[i] where x[i] > 0 (a first write stores +0 elsewhere)
  void (*acc_relu_bwd)(const float* x, const float* g, float* gx,
                       int64_t begin, int64_t end, bool accumulate);
  void (*acc_leaky_bwd)(const float* x, float slope, const float* g,
                        float* gx, int64_t begin, int64_t end,
                        bool accumulate);
  // gx[i] += g[i] * y[i] * (1 - y[i])  (y = sigmoid output)
  void (*acc_sigmoid_bwd)(const float* y, const float* g, float* gx,
                          int64_t begin, int64_t end, bool accumulate);
  // gx[i] += g[i] * (1 - y[i]^2)  (y = tanh output)
  void (*acc_tanh_bwd)(const float* y, const float* g, float* gx,
                       int64_t begin, int64_t end, bool accumulate);

  // --- row-structured (ranges over rows) ---
  // out[r,:] = x[r,:] + bias[0,:]
  void (*add_row_broadcast)(const float* x, const float* bias, float* out,
                            int64_t row_begin, int64_t row_end, int cols);
  // out[r,:] = x[r,:] * col[r]
  void (*mul_col_broadcast)(const float* x, const float* col, float* out,
                            int64_t row_begin, int64_t row_end, int cols);
  // gx[r,:] += g[r,:] * col[r]
  void (*acc_mul_col_bwd_x)(const float* g, const float* col, float* gx,
                            int64_t row_begin, int64_t row_end, int cols,
                            bool accumulate);
  // ga[r,:] += g[r] * vb[r,:] ; gb[r,:] += g[r] * va[r,:], ga's row first
  // (ga and gb may be one slot). Each destination has its own flag.
  void (*acc_rowwise_dot_bwd)(const float* g, const float* va,
                              const float* vb, float* ga, float* gb,
                              int64_t row_begin, int64_t row_end, int cols,
                              bool accumulate_a, bool accumulate_b);
};

// The dispatch table for the active SIMD level.
const KernelTable& Active();
// Specific tables (tests compare them element for element).
const KernelTable& ScalarTable();
// Null when the build/CPU cannot run AVX2.
const KernelTable* Avx2Table();

// --- shared scalar kernels (kernels_common.cc) ---
// Sequential semantics (libm, ordered double accumulation, scatter); one
// implementation for every SIMD level.

void SigmoidForward(const float* x, float* out, int64_t begin, int64_t end);
void TanhForward(const float* x, float* out, int64_t begin, int64_t end);
// Row-wise softmax with per-row max shift and double sum.
void SoftmaxRowsForward(const float* x, float* out, int64_t row_begin,
                        int64_t row_end, int cols);
// The backward kernels here follow the KernelTable's gradient rule: one
// term per element, stored as 0.0f + v when accumulate is false.
void SoftmaxRowsBackward(const float* y, const float* g, float* gx,
                         int64_t row_begin, int64_t row_end, int cols,
                         bool accumulate);
// out[r] = dot(a[r,:], b[r,:]) with a double accumulator.
void RowwiseDotForward(const float* a, const float* b, float* out,
                       int64_t row_begin, int64_t row_end, int cols);
// gb[0,c] += sum_r g[r,c], rows processed in order; accumulate=false
// zeroes the [1 x cols] gb first.
void ColSumAcc(const float* g, float* gb, int64_t rows, int cols,
               bool accumulate);
// gcol[r] += dot(g[r,:], x[r,:]) with a double accumulator (per row, so
// the kernel chunks over rows).
void MulColBwdColAcc(const float* g, const float* x, float* gcol,
                     int64_t row_begin, int64_t row_end, int cols,
                     bool accumulate);
// One input of ConcatColsBackward: its gradient slot, its width, and its
// first-write flag.
struct ConcatGrad {
  float* data;
  int width;
  bool accumulate;
};
// Column-concat backward over rows [row_begin, row_end) of g, whose rows
// are the inputs' widths side by side: input k's row takes the next
// width_k columns. Inputs go in order within a row, so an input listed
// twice gets its first write first.
void ConcatColsBackward(const float* g, const ConcatGrad* inputs,
                        int num_inputs, int64_t row_begin, int64_t row_end);
// Gather / segment primitives (serial scatter order is the contract).
// GatherRowsBackward scatter-adds into rows it may never reach, so its
// gx must hold every earlier contribution, zeros included.
void GatherRowsForward(const float* x, const int* index, int64_t num_index,
                       float* out, int cols);
void GatherRowsBackward(const float* g, const int* index, int64_t num_index,
                        float* gx, int cols);
void SegmentSumForward(const float* x, const int* segment, int64_t rows,
                       float* out, int cols);
void SegmentSumBackward(const float* g, const int* segment, int64_t rows,
                        float* gx, int cols, bool accumulate);
void SegmentMeanForward(const float* x, const int* segment,
                        const int* counts, int64_t rows, float* out,
                        int cols);
void SegmentMeanBackward(const float* g, const int* segment,
                         const int* counts, int64_t rows, float* gx,
                         int cols, bool accumulate);
void SegmentSoftmaxForward(const float* scores, const int* segment,
                           int64_t rows, int num_segments, float* out);
void SegmentSoftmaxBackward(const float* y, const float* g,
                            const int* segment, int64_t rows,
                            int num_segments, float* gs, bool accumulate);
// Fused MulColBroadcast -> SegmentSum scatter (plan fusion pattern B):
// out[segment[e], :] += x[e, :] * col[e], e in order. `out` must be
// zeroed by the caller; the [rows x cols] product is never materialized.
// Each product is rounded to float before the add, exactly like the
// unfused pair.
void MulColSegmentSumForward(const float* x, const float* col,
                             const int* segment, int64_t rows, float* out,
                             int cols);
// Losses: forward returns the scalar; backward adds into gp and subtracts
// from gt, gp's element first (they may be one slot), each with its own
// flag.
double MseForward(const float* p, const float* t, int64_t n);
double MaeForward(const float* p, const float* t, int64_t n);
void MseBackward(const float* p, const float* t, float scale, float* gp,
                 float* gt, int64_t n, bool accumulate_p, bool accumulate_t);
void MaeBackward(const float* p, const float* t, float scale, float* gp,
                 float* gt, int64_t n, bool accumulate_p, bool accumulate_t);

}  // namespace o2sr::nn::kernels

#endif  // O2SR_NN_KERNELS_KERNELS_H_
