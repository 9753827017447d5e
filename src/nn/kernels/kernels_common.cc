// Kernels whose semantics pin a sequential order or call libm: one shared
// implementation for every SIMD level. The loop bodies are verbatim ports
// of the original tape ops — the accumulation order and the exact
// float/double conversions are the bit-exactness contract.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "nn/kernels/kernels.h"

namespace o2sr::nn::kernels {

namespace {

// One gradient term, KernelTable's first-write rule: dst + v, or 0.0f + v
// when this is the slot's first write.
inline void Put(bool accumulate, float& dst, float v) {
  dst = (accumulate ? dst : 0.0f) + v;
}

}  // namespace

void SigmoidForward(const float* x, float* out, int64_t begin, int64_t end) {
  for (int64_t i = begin; i < end; ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
}

void TanhForward(const float* x, float* out, int64_t begin, int64_t end) {
  for (int64_t i = begin; i < end; ++i) out[i] = std::tanh(x[i]);
}

void SoftmaxRowsForward(const float* x, float* out, int64_t row_begin,
                        int64_t row_end, int cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* xr = x + r * cols;
    float* o = out + r * cols;
    float mx = xr[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      o[c] = std::exp(xr[c] - mx);
      sum += o[c];
    }
    for (int c = 0; c < cols; ++c) {
      o[c] = static_cast<float>(o[c] / sum);
    }
  }
}

void SoftmaxRowsBackward(const float* y, const float* g, float* gx,
                         int64_t row_begin, int64_t row_end, int cols,
                         bool accumulate) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* yr = y + r * cols;
    const float* gr = g + r * cols;
    float* o = gx + r * cols;
    double dot = 0.0;
    for (int c = 0; c < cols; ++c) dot += yr[c] * gr[c];
    for (int c = 0; c < cols; ++c) {
      Put(accumulate, o[c], yr[c] * (gr[c] - static_cast<float>(dot)));
    }
  }
}

void RowwiseDotForward(const float* a, const float* b, float* out,
                       int64_t row_begin, int64_t row_end, int cols) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    double dot = 0.0;
    const float* ra = a + r * cols;
    const float* rb = b + r * cols;
    for (int c = 0; c < cols; ++c) dot += ra[c] * rb[c];
    out[r] = static_cast<float>(dot);
  }
}

void ColSumAcc(const float* g, float* gb, int64_t rows, int cols,
               bool accumulate) {
  if (!accumulate) std::fill(gb, gb + cols, 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const float* gr = g + r * cols;
    for (int c = 0; c < cols; ++c) gb[c] += gr[c];
  }
}

void MulColBwdColAcc(const float* g, const float* x, float* gcol,
                     int64_t row_begin, int64_t row_end, int cols,
                     bool accumulate) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* gr = g + r * cols;
    const float* xr = x + r * cols;
    double acc = 0.0;
    for (int c = 0; c < cols; ++c) acc += gr[c] * xr[c];
    Put(accumulate, gcol[r], static_cast<float>(acc));
  }
}

void ConcatColsBackward(const float* g, const ConcatGrad* inputs,
                        int num_inputs, int64_t row_begin, int64_t row_end) {
  int total = 0;
  for (int k = 0; k < num_inputs; ++k) total += inputs[k].width;
  for (int64_t r = row_begin; r < row_end; ++r) {
    const float* src = g + r * total;
    for (int k = 0; k < num_inputs; ++k) {
      const ConcatGrad& in = inputs[k];
      float* dst = in.data + r * in.width;
      for (int c = 0; c < in.width; ++c) Put(in.accumulate, dst[c], src[c]);
      src += in.width;
    }
  }
}

void GatherRowsForward(const float* x, const int* index, int64_t num_index,
                       float* out, int cols) {
  for (int64_t e = 0; e < num_index; ++e) {
    const float* src = x + static_cast<int64_t>(index[e]) * cols;
    std::copy(src, src + cols, out + e * cols);
  }
}

void GatherRowsBackward(const float* g, const int* index, int64_t num_index,
                        float* gx, int cols) {
  for (int64_t e = 0; e < num_index; ++e) {
    const float* gr = g + e * cols;
    float* dst = gx + static_cast<int64_t>(index[e]) * cols;
    for (int c = 0; c < cols; ++c) dst[c] += gr[c];
  }
}

void SegmentSumForward(const float* x, const int* segment, int64_t rows,
                       float* out, int cols) {
  for (int64_t e = 0; e < rows; ++e) {
    const float* src = x + e * cols;
    float* dst = out + static_cast<int64_t>(segment[e]) * cols;
    for (int c = 0; c < cols; ++c) dst[c] += src[c];
  }
}

void SegmentSumBackward(const float* g, const int* segment, int64_t rows,
                        float* gx, int cols, bool accumulate) {
  for (int64_t e = 0; e < rows; ++e) {
    const float* gr = g + static_cast<int64_t>(segment[e]) * cols;
    float* dst = gx + e * cols;
    for (int c = 0; c < cols; ++c) Put(accumulate, dst[c], gr[c]);
  }
}

void SegmentMeanForward(const float* x, const int* segment, const int* counts,
                        int64_t rows, float* out, int cols) {
  for (int64_t e = 0; e < rows; ++e) {
    const float* src = x + e * cols;
    float* dst = out + static_cast<int64_t>(segment[e]) * cols;
    const float inv = 1.0f / static_cast<float>(counts[segment[e]]);
    for (int c = 0; c < cols; ++c) dst[c] += src[c] * inv;
  }
}

void SegmentMeanBackward(const float* g, const int* segment, const int* counts,
                         int64_t rows, float* gx, int cols, bool accumulate) {
  for (int64_t e = 0; e < rows; ++e) {
    const float* gr = g + static_cast<int64_t>(segment[e]) * cols;
    float* dst = gx + e * cols;
    const float inv = 1.0f / static_cast<float>(counts[segment[e]]);
    for (int c = 0; c < cols; ++c) Put(accumulate, dst[c], gr[c] * inv);
  }
}

void SegmentSoftmaxForward(const float* scores, const int* segment,
                           int64_t rows, int num_segments, float* out) {
  std::vector<float> seg_max(static_cast<size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (int64_t e = 0; e < rows; ++e) {
    seg_max[segment[e]] = std::max(seg_max[segment[e]], scores[e]);
  }
  std::vector<double> seg_sum(static_cast<size_t>(num_segments), 0.0);
  for (int64_t e = 0; e < rows; ++e) {
    const float v = std::exp(scores[e] - seg_max[segment[e]]);
    out[e] = v;
    seg_sum[segment[e]] += v;
  }
  for (int64_t e = 0; e < rows; ++e) {
    out[e] = static_cast<float>(out[e] / seg_sum[segment[e]]);
  }
}

void SegmentSoftmaxBackward(const float* y, const float* g,
                            const int* segment, int64_t rows,
                            int num_segments, float* gs, bool accumulate) {
  // d s_e = alpha_e * (g_e - sum_{k in seg} alpha_k g_k)
  std::vector<double> seg_dot(static_cast<size_t>(num_segments), 0.0);
  for (int64_t e = 0; e < rows; ++e) {
    seg_dot[segment[e]] += static_cast<double>(y[e] * g[e]);
  }
  for (int64_t e = 0; e < rows; ++e) {
    Put(accumulate, gs[e],
        y[e] * (g[e] - static_cast<float>(seg_dot[segment[e]])));
  }
}

void MulColSegmentSumForward(const float* x, const float* col,
                             const int* segment, int64_t rows, float* out,
                             int cols) {
  for (int64_t e = 0; e < rows; ++e) {
    const float w = col[e];
    const float* src = x + e * cols;
    float* dst = out + static_cast<int64_t>(segment[e]) * cols;
    for (int c = 0; c < cols; ++c) dst[c] += src[c] * w;
  }
}

double MseForward(const float* p, const float* t, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = p[i] - t[i];
    acc += d * d;
  }
  return acc / static_cast<double>(n);
}

double MaeForward(const float* p, const float* t, int64_t n) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) acc += std::fabs(p[i] - t[i]);
  return acc / static_cast<double>(n);
}

void MseBackward(const float* p, const float* t, float scale, float* gp,
                 float* gt, int64_t n, bool accumulate_p, bool accumulate_t) {
  for (int64_t i = 0; i < n; ++i) {
    const float d = p[i] - t[i];
    Put(accumulate_p, gp[i], scale * d);
    gt[i] = (accumulate_t ? gt[i] : 0.0f) - scale * d;
  }
}

void MaeBackward(const float* p, const float* t, float scale, float* gp,
                 float* gt, int64_t n, bool accumulate_p, bool accumulate_t) {
  for (int64_t i = 0; i < n; ++i) {
    const float d = p[i] - t[i];
    const float sign = d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f);
    Put(accumulate_p, gp[i], scale * sign);
    gt[i] = (accumulate_t ? gt[i] : 0.0f) - scale * sign;
  }
}

}  // namespace o2sr::nn::kernels
