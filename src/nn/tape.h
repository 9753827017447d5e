#ifndef O2SR_NN_TAPE_H_
#define O2SR_NN_TAPE_H_

#include <vector>

#include "common/rng.h"
#include "nn/op_exec.h"
#include "nn/parameter.h"
#include "nn/plan.h"
#include "nn/tensor.h"

namespace o2sr::nn {

// Handle to a node on a Tape. Cheap to copy; only valid for the Tape that
// created it.
struct Value {
  int id = -1;
  bool valid() const { return id >= 0; }
};

// Reverse-mode automatic differentiation over 2-D tensors.
//
// A fresh Tape is built for every forward pass (define-by-run). Each op
// records an OpDesc node; execution happens in one of two modes
// (DESIGN.md §13):
//
//   eager   (O2SR_PLAN=off) — every op runs at record time through the
//           shared dispatcher in op_exec.cc. This is the bit-exact
//           reference path.
//   planned (default)       — ops are recorded unexecuted; the first
//           value/grad/Backward access flushes the pending segment through
//           a compiled Plan (PlanCache-memoized fusion + schedule, run
//           under one exec::Session, a claim on the pool held for the
//           step). Results are bit-identical to eager: both modes
//           dispatch to the same kernels with the same accumulation
//           orders; fusion only elides intermediates.
//
// Shape inference is part of the op descriptors, so rows()/cols() and all
// record-time shape checks work in both modes without materializing values.
//
// In addition to dense ops, the tape provides the three sparse "segment"
// primitives that graph attention needs (GatherRows, SegmentSoftmax,
// SegmentSum): together with MatMul/Concat they express every equation of
// the paper (Eq. 2-17) without dense adjacency matrices.
class Tape {
 public:
  explicit Tape(bool training = true);
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  bool training() const { return training_; }
  // True when this tape defers execution to the plan compiler.
  bool planned() const { return planned_; }

  // Execution-mode override for tests (process-wide, applies to tapes
  // constructed afterwards). kEnv restores the O2SR_PLAN resolution.
  enum class Mode { kEnv, kEager, kPlanned };
  static void SetModeForTest(Mode mode);

  // Leaves ------------------------------------------------------------------

  // Constant input (no gradient flows out of the tape through it).
  Value Input(Tensor t);
  // Trainable leaf; Backward() accumulates into p->grad.
  Value Param(Parameter* p);

  // Accessors ---------------------------------------------------------------

  // Flush (in planned mode) and materialize on demand, so both are valid
  // at any point in either mode.
  const Tensor& value(Value v) const;
  const Tensor& grad(Value v) const;
  // Shapes come from the descriptors: always available, never flush.
  int rows(Value v) const { return desc_of(v.id).rows; }
  int cols(Value v) const { return desc_of(v.id).cols; }
  size_t num_nodes() const { return nodes_.size(); }

  // Dense ops ---------------------------------------------------------------

  Value MatMul(Value a, Value b);
  Value Add(Value a, Value b);
  Value AddN(const std::vector<Value>& xs);
  Value Sub(Value a, Value b);
  Value Mul(Value a, Value b);  // elementwise
  Value Scale(Value a, float s);
  // x: [N,C], bias: [1,C]; adds bias to every row.
  Value AddRowBroadcast(Value x, Value bias);
  // x: [N,C], col: [N,1]; scales row i of x by col[i].
  Value MulColBroadcast(Value x, Value col);
  Value Relu(Value x);
  Value LeakyRelu(Value x, float negative_slope = 0.2f);
  Value Sigmoid(Value x);
  Value Tanh(Value x);
  // Row-wise softmax of [N,C].
  Value SoftmaxRows(Value x);
  // Horizontal concatenation (all inputs share the row count).
  Value ConcatCols(const std::vector<Value>& xs);
  // Extracts columns [start, start+count) of x.
  Value SliceCols(Value x, int start, int count);
  // Row-wise dot product of two [N,C] tensors -> [N,1].
  Value RowwiseDot(Value a, Value b);
  // Inverted dropout; identity when the tape is in inference mode or p == 0.
  // The mask is drawn at record time, so the RNG consumption order is
  // identical in eager and planned mode.
  Value Dropout(Value x, double p, Rng& rng);

  // Sparse / graph ops ------------------------------------------------------

  // out[e, :] = x[index[e], :]. Backward scatter-adds.
  Value GatherRows(Value x, std::vector<int> index);
  // Softmax of scores[:,0] within each segment. scores: [E,1];
  // segment[e] in [0, num_segments). Empty segments are allowed.
  Value SegmentSoftmax(Value scores, std::vector<int> segment,
                       int num_segments);
  // out[s, :] = sum over {e : segment[e] == s} of x[e, :]. -> [S,C].
  Value SegmentSum(Value x, std::vector<int> segment, int num_segments);
  // Like SegmentSum but divides by the segment size (empty segments -> 0).
  Value SegmentMean(Value x, std::vector<int> segment, int num_segments);

  // Reductions / losses -----------------------------------------------------

  // Mean of all entries -> [1,1].
  Value MeanAll(Value x);
  // Mean squared error between same-shaped tensors -> [1,1] (Eq. 16).
  Value MseLoss(Value pred, Value target);
  // Mean absolute error -> [1,1] (Eq. 6).
  Value MaeLoss(Value pred, Value target);

  // Runs backpropagation from `loss`, which must be [1,1]. May be called
  // once per tape.
  void Backward(Value loss);

 private:
  TapeNode& node(int id) {
    O2SR_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<size_t>(id)];
  }
  const TapeNode& node(int id) const {
    O2SR_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
    return nodes_[static_cast<size_t>(id)];
  }
  const OpDesc& desc_of(int id) const { return node(id).desc; }

  // Appends a node; in eager mode runs it immediately (and pre-allocates
  // the zeroed grad slot, like the reference tape always did).
  Value Push(OpDesc desc);

  // Planned mode: compile + execute every node not yet materialized.
  void Flush() const;

  bool training_;
  bool planned_;
  bool backward_done_ = false;
  // Planned mode: nodes below this index have been executed.
  size_t executed_ = 0;
  std::vector<TapeNode> nodes_;
  // Planned mode: per-node schedule, concatenated over flushed segments.
  std::vector<PlanStep> plan_steps_;
};

}  // namespace o2sr::nn

#endif  // O2SR_NN_TAPE_H_
