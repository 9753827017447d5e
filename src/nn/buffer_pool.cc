#include "nn/buffer_pool.h"

#include <utility>

namespace o2sr::nn {

TensorPool& TensorPool::Global() {
  static TensorPool* pool = new TensorPool();
  return *pool;
}

bool TensorPool::TryTake(int rows, int cols, Tensor* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = free_.find(ShapeKey(rows, cols));
  if (it == free_.end() || it->second.empty()) return false;
  *out = std::move(it->second.back());
  it->second.pop_back();
  bytes_ -= out->size() * sizeof(float);
  return true;
}

Tensor TensorPool::Acquire(int rows, int cols) {
  Tensor t;
  if (TryTake(rows, cols, &t)) return t;
  return Tensor(rows, cols);
}

Tensor TensorPool::AcquireZeroed(int rows, int cols) {
  Tensor t;
  if (TryTake(rows, cols, &t)) {
    t.Fill(0.0f);
    return t;
  }
  return Tensor(rows, cols);  // a fresh tensor is value-initialized
}

void TensorPool::Release(Tensor t) {
  if (t.size() == 0) return;
  const size_t bytes = t.size() * sizeof(float);
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes_ + bytes > kMaxBytes) return;  // drop: pool at capacity
  bytes_ += bytes;
  free_[ShapeKey(t.rows(), t.cols())].push_back(std::move(t));
}

size_t TensorPool::pooled_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void TensorPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  free_.clear();
  bytes_ = 0;
}

}  // namespace o2sr::nn
