#ifndef O2SR_NN_OP_EXEC_H_
#define O2SR_NN_OP_EXEC_H_

#include <vector>

#include "nn/op.h"
#include "nn/tensor.h"

namespace o2sr::nn {

// One tape node: the op descriptor plus its (possibly lazily materialized)
// value and gradient slots. The eager executor fills `value` at record time
// and `grad` with zeros; the planned executor leaves both empty until a
// flush or the backward pass materializes them from the TensorPool.
struct TapeNode {
  OpDesc desc;
  Tensor value;
  Tensor grad;
};

namespace detail {

// The single op dispatcher shared by the eager reference path and the
// compiled-plan path (DESIGN.md §13). Semantics — accumulation order, the
// float/double conversions, the scatter orders — are the bit-exactness
// contract: both executors call exactly these functions, so they cannot
// drift apart.

// Materializes nodes[id].value (allocating the output when the slot is
// empty) by running the op's forward kernels. kParam leaves are
// materialized as a copy of Parameter::value; kInput leaves must already
// hold their tensor.
void ExecuteForward(std::vector<TapeNode>& nodes, int id);

// Accumulates the gradients of nodes[id]'s inputs from nodes[id].grad.
// A contribution that covers a whole input slot no op has written yet is
// its first write: it lands in a stale pooled buffer as 0.0f + v, the bits
// a zeroed slot would hold after adding v (DESIGN.md §13). Partial writers
// (the GatherRows scatter, SliceCols) materialize the slot with zeros
// first. For kParam leaves the gradient lands in Parameter::grad.
void ExecuteBackward(std::vector<TapeNode>& nodes, int id);

// Input-value resolution with the planned-mode fallbacks: an empty kParam
// slot reads Parameter::value directly (no copy), any other empty slot —
// an intermediate the plan fused away that a later op still reads — is
// recomputed once into its slot.
const Tensor& InputValue(std::vector<TapeNode>& nodes, int id);

// Gradient slot of a node for a reader or a partial writer, materialized
// with zeros when no op has written it (profiled as tape.grad_zero_fill).
Tensor& GradSlot(std::vector<TapeNode>& nodes, int id);

// --- fused execution (plan fusion groups; see plan.h) ---
// Op semantics stay in this translation unit: the plan compiler only
// decides *which* of these run, never what they compute.

// Pattern A: MatMul [+ AddRowBroadcast] [+ activation] executed as one
// region ("nn.linear_act"). Only the group tail's value is materialized;
// each row is multiplied, biased and activated in place, with per-element
// arithmetic identical to the unfused ops. bias_id / act_id are -1 when
// the group lacks that member (at least one must be present).
void FusedLinearForward(std::vector<TapeNode>& nodes, int matmul_id,
                        int bias_id, int act_id);
// Backward of pattern A. The activation backward reads the activation
// *output* (sign-equivalent to the input test for relu/leaky-relu, exact
// for sigmoid/tanh), so the fused-away pre-activation value is never
// needed. Gradients of every group node are materialized — external reads
// behave exactly as in eager mode.
void FusedLinearBackward(std::vector<TapeNode>& nodes, int matmul_id,
                         int bias_id, int act_id);
// Pattern B: MulColBroadcast -> SegmentSum as one scatter
// ("nn.mul_col_segment_sum"); the [E x C] product is never materialized.
// Backward needs no fused form (neither op's backward reads the product).
void FusedScatterForward(std::vector<TapeNode>& nodes, int mul_id,
                         int segsum_id);

}  // namespace detail
}  // namespace o2sr::nn

#endif  // O2SR_NN_OP_EXEC_H_
