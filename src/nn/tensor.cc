#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "exec/thread_pool.h"
#include "obs/profiler.h"

namespace o2sr::nn {

namespace {

// Elementwise ops and reductions dispatch to exec::CurrentPool() in chunks
// of this many elements; anything smaller runs inline (a single chunk never
// leaves the calling thread). The grain depends only on the size, never on
// the thread count, which is what keeps results bit-identical at any
// O2SR_THREADS (see DESIGN.md §8).
constexpr int64_t kElementGrain = int64_t{1} << 15;

}  // namespace

Tensor Tensor::Full(int rows, int cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(int rows, int cols,
                          const std::vector<float>& values) {
  O2SR_CHECK_EQ(static_cast<size_t>(rows) * cols, values.size());
  Tensor t(rows, cols);
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::RandomNormal(int rows, int cols, double stddev, Rng& rng) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Xavier(int rows, int cols, Rng& rng) {
  Tensor t(rows, cols);
  const double limit = std::sqrt(6.0 / (rows + cols));
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform(-limit, limit));
  }
  return t;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::AddInPlace(const Tensor& other) {
  O2SR_CHECK(SameShape(other));
  O2SR_PROFILE_OP("tensor.add_inplace",
                  uint64_t{3} * data_.size() * sizeof(float), data_.size());
  exec::CurrentPool().RunChunks(
      static_cast<int64_t>(data_.size()), kElementGrain,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) data_[i] += other.data_[i];
      },
      nullptr, "tensor.add_inplace");
}

void Tensor::ScaleInPlace(float scalar) {
  O2SR_PROFILE_OP("tensor.scale_inplace",
                  uint64_t{2} * data_.size() * sizeof(float), data_.size());
  exec::CurrentPool().RunChunks(
      static_cast<int64_t>(data_.size()), kElementGrain,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) data_[i] *= scalar;
      },
      nullptr, "tensor.scale_inplace");
}

// Reductions fold fixed kElementGrain-sized partials left-to-right (see
// exec::ThreadPool::ParallelReduce): the association is defined by the
// grain, so the value is the same at every thread count.
double Tensor::Sum() const {
  O2SR_PROFILE_OP("tensor.sum", data_.size() * sizeof(float), data_.size());
  return exec::CurrentPool().ParallelReduce(
      static_cast<int64_t>(data_.size()), kElementGrain, 0.0,
      [&](int64_t begin, int64_t end) {
        double s = 0.0;
        for (int64_t i = begin; i < end; ++i) s += data_[i];
        return s;
      },
      [](double acc, double partial) { return acc + partial; }, nullptr,
      "tensor.sum");
}

double Tensor::MeanAbs() const {
  if (data_.empty()) return 0.0;
  O2SR_PROFILE_OP("tensor.mean_abs", data_.size() * sizeof(float),
                  data_.size());
  const double s = exec::CurrentPool().ParallelReduce(
      static_cast<int64_t>(data_.size()), kElementGrain, 0.0,
      [&](int64_t begin, int64_t end) {
        double partial = 0.0;
        for (int64_t i = begin; i < end; ++i) partial += std::fabs(data_[i]);
        return partial;
      },
      [](double acc, double partial) { return acc + partial; }, nullptr,
      "tensor.mean_abs");
  return s / static_cast<double>(data_.size());
}

std::string Tensor::ShapeString() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[%dx%d]", rows_, cols_);
  return buf;
}

}  // namespace o2sr::nn
