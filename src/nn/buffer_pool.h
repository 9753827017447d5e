#ifndef O2SR_NN_BUFFER_POOL_H_
#define O2SR_NN_BUFFER_POOL_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "nn/tensor.h"

namespace o2sr::nn {

// Process-wide recycling pool for tape value/grad buffers, keyed by shape.
//
// A training step allocates and frees the same few dozen tensor shapes every
// iteration; without reuse that is hundreds of gigabytes of zero-fill and
// page churn over a run (the dominant cost the pre-plan profiler reports
// under tensor allocation). The tape returns its buffers here on
// destruction and the executors draw from the pool instead of the heap.
//
// Acquire() returns a buffer with *stale contents* — callers either fully
// overwrite it (every forward op does, and so does a gradient slot's first
// writer) or ask for AcquireZeroed() (gradient slots that are read or
// partly written before anything covers them). Reuse therefore never
// changes any computed bit, only where the bytes live.
//
// The pool is bounded: Release() beyond the cap simply drops the tensor,
// so a burst of odd shapes cannot grow the pool without limit.
class TensorPool {
 public:
  static TensorPool& Global();

  // A buffer of the given shape with unspecified contents.
  Tensor Acquire(int rows, int cols);
  // A buffer of the given shape filled with zeros (a miss allocates one,
  // which comes zeroed; only a recycled buffer is filled).
  Tensor AcquireZeroed(int rows, int cols);
  // Returns a buffer to the pool (dropped when the pool is at capacity or
  // the tensor is empty).
  void Release(Tensor t);

  // Bytes currently parked in the pool (for tests / introspection).
  size_t pooled_bytes() const;
  void Clear();

 private:
  TensorPool() = default;

  // Moves a pooled buffer of the shape into *out; false on a miss.
  bool TryTake(int rows, int cols, Tensor* out);

  static constexpr size_t kMaxBytes = size_t{512} << 20;

  static uint64_t ShapeKey(int rows, int cols) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(rows)) << 32) |
           static_cast<uint32_t>(cols);
  }

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<Tensor>> free_;
  size_t bytes_ = 0;
};

}  // namespace o2sr::nn

#endif  // O2SR_NN_BUFFER_POOL_H_
