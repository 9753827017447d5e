#ifndef O2SR_NN_TENSOR_H_
#define O2SR_NN_TENSOR_H_

#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace o2sr::nn {

// Dense 2-D row-major float matrix. This is the only tensor shape the
// project needs: vectors are represented as 1xC or Nx1 matrices.
//
// Tensor is a plain value type (copyable, movable). All computation-graph
// semantics live in Tape; Tensor itself only provides storage and a few
// forward-only helpers used by both the tape ops and plain numeric code.
class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}
  Tensor(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, 0.0f) {
    O2SR_CHECK_GE(rows, 0);
    O2SR_CHECK_GE(cols, 0);
  }

  static Tensor Zeros(int rows, int cols) { return Tensor(rows, cols); }
  static Tensor Full(int rows, int cols, float value);
  // Builds a row-major tensor from `values` (size must be rows*cols).
  static Tensor FromVector(int rows, int cols,
                           const std::vector<float>& values);
  // Gaussian entries with the given std; used for embedding init.
  static Tensor RandomNormal(int rows, int cols, double stddev, Rng& rng);
  // Xavier/Glorot uniform init for weight matrices.
  static Tensor Xavier(int rows, int cols, Rng& rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    O2SR_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    O2SR_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  // Unchecked element access for hot loops.
  float* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  // The in-place ops and reductions run on exec::CurrentPool(), chunked so
  // that they are bit-identical to the serial execution at any O2SR_THREADS
  // (DESIGN.md §8). Small tensors stay on the calling thread.

  // this += other (shapes must match).
  void AddInPlace(const Tensor& other);
  // this *= scalar.
  void ScaleInPlace(float scalar);

  // Sum of all entries.
  double Sum() const;
  // Mean absolute value; 0 for empty tensors.
  double MeanAbs() const;

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Human-readable shape like "[3x4]".
  std::string ShapeString() const;

 private:
  int rows_;
  int cols_;
  std::vector<float> data_;
};

}  // namespace o2sr::nn

#endif  // O2SR_NN_TENSOR_H_
