// AVX2 kernel TU. Elementwise / row-broadcast kernels reuse the generic
// bodies (kernels_impl.inl) and let GCC vectorize them 8 lanes wide — they
// apply one rounded expression per element, so any lane grouping is
// bit-identical. The dense matmul family is hand-written with intrinsics
// instead: autovectorization of those loops under -mavx2 is actively slower
// than the SSE2 baseline (GCC spills the running row sums to memory every
// p iteration and mangles the four-chain dot), while explicit register
// tiling is ~2-3x faster.
//
// Bit-exactness is preserved by construction:
//  * MatMulRows/MatMulTaRows: every output element owns one add chain that
//    starts at +0 and adds `a * b` over p in ascending order. The tilings
//    only change how many disjoint chains sit in registers at once, never
//    the per-element sequence. accumulate mode adds the completed sum in
//    one rounded add per element, exactly like the scalar scratch-row path.
//  * Finite-B rule: the reference loops skip a == 0 terms and these bodies
//    add every term. The two agree whenever B is finite: then a skipped
//    term is 0 * b = ±0, and adding ±0 never changes a sum that started at
//    +0 (under round-to-nearest such a sum is never −0, and x + ±0 == x for
//    every other x, ±Inf and NaN included). Only 0 * ±Inf or 0 * NaN = NaN
//    can tell them apart, so each call scans B once and hands a non-finite
//    B to ScalarTable(), the reference. No zero test, branch or blend is
//    left in the dense bodies.
//  * MatMulTbRows: each output element keeps its four accumulator chains
//    (chain q sums the terms with p % 4 == q) and the (c0+c1)+(c2+c3)
//    fold. B is transposed once per call into a scratch tile so the chains
//    advance as outer products over contiguous rows; the k % 4 tail is
//    appended to chain 0, as in the scalar body. It has no skip, so it
//    needs no finite-B scan.
//  * No FMA anywhere (-mfma is off and only _mm256_mul_ps/_mm256_add_ps
//    are used): `a*b` rounds before the add, matching scalar.
//
// Tilings. A chain advances once per add latency (~4 cycles), so a tile
// must keep ~8 independent chains in flight to run at add throughput:
//  * 32-wide column tiles (both kernels): three output rows per sweep, 12
//    ymm sums, each loaded B tile feeding three rows.
//  * MatMulRows, the remaining columns: 8-row blocks, one ymm sum per row
//    per 8-column tile and one scalar chain per row for the n % 8 columns.
//  * MatMulTaRows, the remaining columns: A is [k x m], so eight output
//    rows read the contiguous a[p*m + i .. i+7]; a ymm sum holds one
//    column of eight rows, and narrow column groups keep several row
//    blocks in flight. A chunk's last, partial block loads under a lane
//    mask and stores only its own rows.
//  * MatMulTbRows: 16- and 8-column four-chain blocks, then one masked
//    block for the n % 8 columns.
#ifdef O2SR_HAVE_AVX2_TU

#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "nn/kernels/kernels.h"

#define O2SR_KERNEL_NS avx2_impl
#include "nn/kernels/kernels_impl.inl"
#undef O2SR_KERNEL_NS

namespace o2sr::nn::kernels {
namespace avx2_hand {

namespace {

inline void Madd(__m256& acc, __m256 v, __m256 b) {
  acc = _mm256_add_ps(acc, _mm256_mul_ps(v, b));
}

// Writes one completed sum: dst = s, or dst + s in accumulate mode.
inline void Store8(float* dst, __m256 s, bool accumulate) {
  if (accumulate) s = _mm256_add_ps(_mm256_loadu_ps(dst), s);
  _mm256_storeu_ps(dst, s);
}

inline void Store1(float* dst, float s, bool accumulate) {
  *dst = accumulate ? *dst + s : s;
}

// Lanes [0, lanes) set.
inline __m256i LaneMask(int lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// True when x[0, count) holds no ±Inf or NaN: x - x is +0 for finite x and
// NaN otherwise, and OR-ing bit patterns keeps a NaN a NaN.
bool AllFinite(const float* x, int64_t count) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc = _mm256_or_ps(acc, _mm256_sub_ps(v, v));
  }
  if (i < count) {
    const __m256 v =
        _mm256_maskload_ps(x + i, LaneMask(static_cast<int>(count - i)));
    acc = _mm256_or_ps(acc, _mm256_sub_ps(v, v));
  }
  return _mm256_movemask_ps(_mm256_cmp_ps(acc, acc, _CMP_UNORD_Q)) == 0;
}

// R output rows x T 8-column tiles, one ymm chain per (row, tile). Row r's
// A value for term p is a[r * rs + p * ps]: rs = k, ps = 1 for a row-major
// A, rs = 1, ps = m for the transposed A of MatMulTaRows. B rows are
// contiguous with stride n. `a`, `b` and `c` point at the tile's origin.
template <int R, int T>
inline void RowTile(const float* a, int64_t rs, int64_t ps, const float* b,
                    float* c, int k, int n, bool accumulate) {
  __m256 s[R][T] = {};
  for (int p = 0; p < k; ++p) {
    const float* ap = a + p * ps;
    const float* br = b + static_cast<int64_t>(p) * n;
    __m256 bv[T];
#pragma GCC unroll 4
    for (int t = 0; t < T; ++t) bv[t] = _mm256_loadu_ps(br + 8 * t);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * rs);
#pragma GCC unroll 4
      for (int t = 0; t < T; ++t) Madd(s[r][t], av, bv[t]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < T; ++t) Store8(c + r * n + 8 * t, s[r][t], accumulate);
  }
}

// R rows of one output column of MatMulRows, one scalar chain per row.
template <int R>
inline void RowColumn(const float* a, const float* b, float* c, int k, int n,
                      bool accumulate) {
  float s[R] = {};
  for (int p = 0; p < k; ++p) {
    const float bv = b[static_cast<int64_t>(p) * n];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) s[r] += a[r * k + p] * bv;
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) Store1(c + r * n, s[r], accumulate);
}

// The 32-wide column tiles of output rows [row_begin, row_end), three rows
// per sweep: the largest block whose 12 sums stay ymm-resident.
void WideTiles(const float* a, int64_t rs, int64_t ps, const float* b,
               float* c, int64_t row_begin, int64_t row_end, int k, int n,
               bool accumulate) {
  const int n32 = n - n % 32;
  if (n32 == 0) return;
  int64_t i = row_begin;
  for (; i + 3 <= row_end; i += 3) {
    for (int j = 0; j < n32; j += 32) {
      RowTile<3, 4>(a + i * rs, rs, ps, b + j, c + i * n + j, k, n,
                    accumulate);
    }
  }
  for (int j = 0; j < n32 && i < row_end; j += 32) {
    if (row_end - i == 2) {
      RowTile<2, 4>(a + i * rs, rs, ps, b + j, c + i * n + j, k, n,
                    accumulate);
    } else {
      RowTile<1, 4>(a + i * rs, rs, ps, b + j, c + i * n + j, k, n,
                    accumulate);
    }
  }
}

// Columns [n - n % 32, n) of R rows of MatMulRows starting at row i.
template <int R>
void NarrowRows(const float* a, const float* b, float* c, int64_t i, int k,
                int n, bool accumulate) {
  const float* ai = a + i * k;
  float* ci = c + i * n;
  int j = n - n % 32;
  for (; j + 8 <= n; j += 8) {
    RowTile<R, 1>(ai, k, 1, b + j, ci + j, k, n, accumulate);
  }
  for (; j < n; ++j) RowColumn<R>(ai, b + j, ci + j, k, n, accumulate);
}

// W columns of output rows [0, rows) of MatMulTaRows, vectorized across
// rows: s[blk][w] holds column w of rows 8*blk .. 8*blk+7. With kPartial,
// the last block may hold fewer than 8 rows; it loads under a lane mask and
// stores only those rows. `a`, `b` and `c` point at the group's origin.
template <int W, int NB, bool kPartial>
void AcrossRows(const float* a, const float* b, float* c, int64_t rows,
                int m, int k, int n, bool accumulate) {
  const int last_rows = kPartial ? static_cast<int>(rows - 8 * (NB - 1)) : 8;
  const __m256i last_mask = LaneMask(last_rows);
  __m256 s[NB][W] = {};
  for (int p = 0; p < k; ++p) {
    const float* ap = a + static_cast<int64_t>(p) * m;
    const float* bp = b + static_cast<int64_t>(p) * n;
    __m256 av[NB];
#pragma GCC unroll 8
    for (int blk = 0; blk < NB; ++blk) {
      av[blk] = kPartial && blk == NB - 1
                    ? _mm256_maskload_ps(ap + 8 * blk, last_mask)
                    : _mm256_loadu_ps(ap + 8 * blk);
    }
#pragma GCC unroll 8
    for (int w = 0; w < W; ++w) {
      const __m256 bv = _mm256_broadcast_ss(bp + w);
#pragma GCC unroll 8
      for (int blk = 0; blk < NB; ++blk) Madd(s[blk][w], av[blk], bv);
    }
  }
  alignas(32) float lane[8];
#pragma GCC unroll 8
  for (int blk = 0; blk < NB; ++blk) {
    const int valid = blk == NB - 1 ? last_rows : 8;
#pragma GCC unroll 8
    for (int w = 0; w < W; ++w) {
      _mm256_store_ps(lane, s[blk][w]);
      for (int r = 0; r < valid; ++r) {
        Store1(c + static_cast<int64_t>(8 * blk + r) * n + w, lane[r],
               accumulate);
      }
    }
  }
}

// The last row group of a column group: rows < 8 * NB, in ceil(rows / 8)
// blocks.
template <int W, int NB>
void AcrossRowsTail(const float* a, const float* b, float* c, int64_t rows,
                    int m, int k, int n, bool accumulate) {
  if constexpr (NB > 1) {
    if (rows <= 8 * (NB - 1)) {
      AcrossRowsTail<W, NB - 1>(a, b, c, rows, m, k, n, accumulate);
      return;
    }
  }
  AcrossRows<W, NB, true>(a, b, c, rows, m, k, n, accumulate);
}

// W <= 8 columns of every output row: narrow groups keep 8 / W row blocks
// in flight, so each p advances about eight chains.
template <int W>
void TaColumns(const float* a, const float* b, float* c, int64_t rows, int w,
               int m, int k, int n, bool accumulate) {
  if constexpr (W > 1) {
    if (w < W) {
      TaColumns<W - 1>(a, b, c, rows, w, m, k, n, accumulate);
      return;
    }
  }
  constexpr int kBlocks = 8 / W;
  int64_t r = 0;
  for (; r + 8 * kBlocks <= rows; r += 8 * kBlocks) {
    AcrossRows<W, kBlocks, false>(a + r, b, c + r * n, 8 * kBlocks, m, k, n,
                                  accumulate);
  }
  if (r < rows) {
    AcrossRowsTail<W, kBlocks>(a + r, b, c + r * n, rows - r, m, k, n,
                               accumulate);
  }
}

// One row of MatMulTbRows over T 8-column tiles of bt = B^T ([k x n]).
// kMasked: one tile of the n % 8 columns, loaded and stored under `mask`.
template <int T, bool kMasked>
inline void TbTile(const float* arow, const float* bt, float* c, int k, int n,
                   __m256i mask, bool accumulate) {
  const auto load = [mask](const float* p) {
    if constexpr (kMasked) {
      return _mm256_maskload_ps(p, mask);
    } else {
      return _mm256_loadu_ps(p);
    }
  };
  __m256 q0[T] = {}, q1[T] = {}, q2[T] = {}, q3[T] = {};
  int p = 0;
  // Unrolled (-funroll-loops), this loop runs out of ymm registers and
  // spills a chain to the stack every step.
#pragma GCC unroll 1
  for (; p + 4 <= k; p += 4) {
    const float* r0 = bt + static_cast<int64_t>(p) * n;
    const __m256 v0 = _mm256_broadcast_ss(arow + p);
    const __m256 v1 = _mm256_broadcast_ss(arow + p + 1);
    const __m256 v2 = _mm256_broadcast_ss(arow + p + 2);
    const __m256 v3 = _mm256_broadcast_ss(arow + p + 3);
#pragma GCC unroll 2
    for (int t = 0; t < T; ++t) {
      Madd(q0[t], v0, load(r0 + 8 * t));
      Madd(q1[t], v1, load(r0 + n + 8 * t));
      Madd(q2[t], v2, load(r0 + 2 * n + 8 * t));
      Madd(q3[t], v3, load(r0 + 3 * n + 8 * t));
    }
  }
  for (; p < k; ++p) {  // k % 4 tail: extends chain 0
    const float* r0 = bt + static_cast<int64_t>(p) * n;
    const __m256 v0 = _mm256_broadcast_ss(arow + p);
#pragma GCC unroll 2
    for (int t = 0; t < T; ++t) Madd(q0[t], v0, load(r0 + 8 * t));
  }
#pragma GCC unroll 2
  for (int t = 0; t < T; ++t) {
    __m256 d = _mm256_add_ps(_mm256_add_ps(q0[t], q1[t]),
                             _mm256_add_ps(q2[t], q3[t]));
    if (accumulate) d = _mm256_add_ps(load(c + 8 * t), d);
    if constexpr (kMasked) {
      _mm256_maskstore_ps(c + 8 * t, mask, d);
    } else {
      _mm256_storeu_ps(c + 8 * t, d);
    }
  }
}

}  // namespace

void MatMulRows(const float* a, const float* b, float* c, int64_t row_begin,
                int64_t row_end, int k, int n, bool accumulate) {
  if (!AllFinite(b, static_cast<int64_t>(k) * n)) {
    ScalarTable().matmul_rows(a, b, c, row_begin, row_end, k, n, accumulate);
    return;
  }
  WideTiles(a, k, 1, b, c, row_begin, row_end, k, n, accumulate);
  if (n % 32 == 0) return;
  int64_t i = row_begin;
  for (; i + 8 <= row_end; i += 8) NarrowRows<8>(a, b, c, i, k, n, accumulate);
  if (i + 4 <= row_end) {
    NarrowRows<4>(a, b, c, i, k, n, accumulate);
    i += 4;
  }
  if (i + 2 <= row_end) {
    NarrowRows<2>(a, b, c, i, k, n, accumulate);
    i += 2;
  }
  if (i < row_end) NarrowRows<1>(a, b, c, i, k, n, accumulate);
}

void MatMulTaRows(const float* a, const float* b, float* c, int64_t row_begin,
                  int64_t row_end, int m, int k, int n, bool accumulate) {
  if (!AllFinite(b, static_cast<int64_t>(k) * n)) {
    ScalarTable().matmul_ta_rows(a, b, c, row_begin, row_end, m, k, n,
                                 accumulate);
    return;
  }
  // a is [k x m] and output row i reads column i of a: a[p*m + i].
  WideTiles(a, 1, m, b, c, row_begin, row_end, k, n, accumulate);
  for (int j = n - n % 32; j < n; j += 8) {
    TaColumns<8>(a + row_begin, b + j, c + row_begin * n + j,
                 row_end - row_begin, std::min(8, n - j), m, k, n,
                 accumulate);
  }
}

void MatMulTbRows(const float* a, const float* b, float* c, int64_t row_begin,
                  int64_t row_end, int k, int n, bool accumulate) {
  // Transpose B ([n x k] row-major) into bt ([k x n]) once per call, so the
  // four chains advance as outer products over contiguous bt rows: chain q
  // accumulates the p % 4 == q terms of every output column at once.
  float stack_bt[4096];
  std::vector<float> heap_bt;
  float* bt = stack_bt;
  const int64_t bt_size = static_cast<int64_t>(k) * n;
  if (bt_size > 4096) {
    heap_bt.resize(static_cast<size_t>(bt_size));
    bt = heap_bt.data();
  }
  for (int j = 0; j < n; ++j) {
    const float* brow = b + static_cast<int64_t>(j) * k;
    for (int p = 0; p < k; ++p) bt[static_cast<int64_t>(p) * n + j] = brow[p];
  }

  const __m256i tail_mask = LaneMask(n % 8);
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      TbTile<2, false>(arow, bt + j, crow + j, k, n, tail_mask, accumulate);
    }
    if (j + 8 <= n) {
      TbTile<1, false>(arow, bt + j, crow + j, k, n, tail_mask, accumulate);
      j += 8;
    }
    if (j < n) {
      TbTile<1, true>(arow, bt + j, crow + j, k, n, tail_mask, accumulate);
    }
  }
}

}  // namespace avx2_hand

const KernelTable* Avx2TableImpl() {
  static const KernelTable table = {
      avx2_hand::MatMulRows,    avx2_hand::MatMulTaRows,
      avx2_hand::MatMulTbRows,  avx2_impl::Add,
      avx2_impl::Sub,           avx2_impl::Mul,
      avx2_impl::Scale,         avx2_impl::AccAdd,
      avx2_impl::AccSub,        avx2_impl::AccScale,
      avx2_impl::AccMul,        avx2_impl::AccConst,
      avx2_impl::Relu,          avx2_impl::LeakyRelu,
      avx2_impl::AccReluBwd,    avx2_impl::AccLeakyBwd,
      avx2_impl::AccSigmoidBwd, avx2_impl::AccTanhBwd,
      avx2_impl::AddRowBroadcast, avx2_impl::MulColBroadcast,
      avx2_impl::AccMulColBwdX, avx2_impl::AccRowwiseDotBwd,
  };
  return &table;
}

}  // namespace o2sr::nn::kernels

#endif  // O2SR_HAVE_AVX2_TU
