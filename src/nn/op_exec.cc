#include "nn/op_exec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "nn/buffer_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/parameter.h"
#include "obs/profiler.h"

namespace o2sr::nn {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kParam: return "param";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kAdd: return "add";
    case OpKind::kAddN: return "add_n";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kScale: return "scale";
    case OpKind::kAddRowBroadcast: return "add_row_broadcast";
    case OpKind::kMulColBroadcast: return "mul_col_broadcast";
    case OpKind::kRelu: return "relu";
    case OpKind::kLeakyRelu: return "leaky_relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSoftmaxRows: return "softmax_rows";
    case OpKind::kConcatCols: return "concat_cols";
    case OpKind::kSliceCols: return "slice_cols";
    case OpKind::kRowwiseDot: return "rowwise_dot";
    case OpKind::kDropout: return "dropout";
    case OpKind::kGatherRows: return "gather_rows";
    case OpKind::kSegmentSoftmax: return "segment_softmax";
    case OpKind::kSegmentSum: return "segment_sum";
    case OpKind::kSegmentMean: return "segment_mean";
    case OpKind::kMeanAll: return "mean_all";
    case OpKind::kMseLoss: return "mse_loss";
    case OpKind::kMaeLoss: return "mae_loss";
  }
  return "unknown";
}

namespace detail {
namespace {

// Grains are pure functions of the shapes, never of the thread count
// (DESIGN.md §8). Every kernel dispatched here writes disjoint output rows
// or elements and carries no accumulation across chunks, so the chunk size
// cannot change bits, only scheduling: how many lanes a region can use
// against the claim and fork/join cost of each chunk. Matmul row blocks
// take ~2M flops, a handful of chunks for the big [edges x dim] products.
// Element and row ops take 32K elements (128 KiB of output), so the
// attention's per-head ops ([E x 8] .. [E x 35], E ~ 1.5k-11k) split into
// up to a dozen chunks instead of running whole on the calling thread.
// Reductions are NOT dispatched through this file; their fold association
// is pinned by the tensor.cc grain, which must not change.
constexpr int64_t kFlopsPerChunk = int64_t{1} << 21;
constexpr int64_t kElementGrain = int64_t{1} << 15;

int64_t RowGrain(int64_t flops_per_row) {
  return std::max<int64_t>(1,
                           kFlopsPerChunk / std::max<int64_t>(1, flops_per_row));
}

// Row grain for elementwise-cost row ops (copies, broadcasts).
int64_t RowGrainElems(int cols) {
  return std::max<int64_t>(1, kElementGrain / std::max(1, cols));
}

// Runs chunk_fn over [0, n) in grain-sized chunks. A single-chunk kernel
// runs directly on the caller — such a region could never leave the calling
// thread, so it is not recorded as a parallel region (this is most of the
// chunk-count reduction the plan executor is gated on; the multi-chunk
// dispatch path keeps full accounting under `name`).
template <typename Fn>
void Dispatch(int64_t n, int64_t grain, const char* name, Fn&& fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n <= grain) {
    fn(int64_t{0}, n);
    return;
  }
  exec::CurrentPool().RunChunks(n, grain, fn, nullptr, name);
}

// Forward-pass attribution: each op moves its operands and output once.
// Items = output elements.
inline void ProfileOp(const char* name, const Tensor& out,
                      uint64_t operand_bytes) {
  O2SR_PROFILE_OP(name, operand_bytes + out.size() * sizeof(float),
                  out.size());
}

inline uint64_t TensorBytes(const Tensor& t) {
  return t.size() * sizeof(float);
}

bool Materialized(const TapeNode& n) {
  return n.value.rows() == n.desc.rows && n.value.cols() == n.desc.cols;
}

bool GradMaterialized(const TapeNode& n) {
  return n.grad.rows() == n.desc.rows && n.grad.cols() == n.desc.cols;
}

// A gradient slot about to take one contribution that covers every element
// of it (DESIGN.md §13, first-write rule). The first such contribution
// gets a stale pooled buffer and accumulate == false: its kernel stores
// 0.0f + v, bit for bit what adding v to a zeroed slot gives. Later ones
// add. Eager tapes zero every slot at record time, so there every
// contribution adds: the zero-then-add reference. When one op writes a
// slot twice (Mul(x, x)), the first claim must be the first write.
struct GradOut {
  float* data;
  bool accumulate;
};

GradOut WriteGrad(std::vector<TapeNode>& nodes, int id) {
  TapeNode& n = nodes[static_cast<size_t>(id)];
  const bool accumulate = GradMaterialized(n);
  if (!accumulate) {
    n.grad = TensorPool::Global().Acquire(n.desc.rows, n.desc.cols);
  }
  return {n.grad.data(), accumulate};
}

// Output slot, drawn from the recycling pool when not already materialized.
// Pooled buffers carry stale contents; every forward op either fully
// overwrites its output or Fill(0)s it first, so reuse cannot change bits.
Tensor& EnsureOut(TapeNode& n) {
  if (!Materialized(n)) {
    n.value = TensorPool::Global().Acquire(n.desc.rows, n.desc.cols);
  }
  return n.value;
}

}  // namespace

const Tensor& InputValue(std::vector<TapeNode>& nodes, int id) {
  TapeNode& n = nodes[static_cast<size_t>(id)];
  // A param leaf the plan left unmaterialized reads the parameter storage
  // directly (saves the per-step embedding-table copy).
  if (n.desc.kind == OpKind::kParam && n.value.empty()) {
    return n.desc.param->value;
  }
  // A fused-away intermediate read from outside its fusion group: recompute
  // it once into its slot.
  if (!Materialized(n)) ExecuteForward(nodes, id);
  return n.value;
}

Tensor& GradSlot(std::vector<TapeNode>& nodes, int id) {
  TapeNode& n = nodes[static_cast<size_t>(id)];
  if (!GradMaterialized(n)) {
    n.grad = TensorPool::Global().AcquireZeroed(n.desc.rows, n.desc.cols);
    O2SR_PROFILE_OP("tape.grad_zero_fill", TensorBytes(n.grad),
                    n.grad.size());
  }
  return n.grad;
}

void ExecuteForward(std::vector<TapeNode>& nodes, int id) {
  TapeNode& node = nodes[static_cast<size_t>(id)];
  const OpDesc& d = node.desc;
  const kernels::KernelTable& K = kernels::Active();
  switch (d.kind) {
    case OpKind::kInput:
      O2SR_CHECK(Materialized(node));  // inputs carry their tensor
      return;
    case OpKind::kParam:
      if (!Materialized(node)) node.value = d.param->value;
      return;
    case OpKind::kMatMul: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      const int k = a.cols(), n = b.cols();
      ProfileOp("tape.matmul", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(a.rows(), RowGrain(int64_t{2} * k * n), "nn.matmul",
               [&](int64_t rb, int64_t re) {
                 K.matmul_rows(a.data(), b.data(), out.data(), rb, re, k, n,
                               /*accumulate=*/false);
               });
      return;
    }
    case OpKind::kAdd: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.add", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.add",
               [&](int64_t bi, int64_t ei) {
                 K.add(a.data(), b.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kAddN: {
      std::vector<const float*> ins;
      ins.reserve(d.inputs.size());
      for (int in : d.inputs) ins.push_back(InputValue(nodes, in).data());
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.add_n", out,
                static_cast<uint64_t>(d.inputs.size()) * TensorBytes(out));
      float* o = out.data();
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.add",
               [&](int64_t bi, int64_t ei) {
                 if (ins.size() == 1) {
                   std::copy(ins[0] + bi, ins[0] + ei, o + bi);
                   return;
                 }
                 K.add(ins[0], ins[1], o, bi, ei);
                 for (size_t i = 2; i < ins.size(); ++i) {
                   K.acc_add(o, ins[i], bi, ei, /*accumulate=*/true);
                 }
               });
      return;
    }
    case OpKind::kSub: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.sub", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.sub",
               [&](int64_t bi, int64_t ei) {
                 K.sub(a.data(), b.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kMul: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mul", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.mul",
               [&](int64_t bi, int64_t ei) {
                 K.mul(a.data(), b.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kScale: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.scale", out, TensorBytes(out));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.scale",
               [&](int64_t bi, int64_t ei) {
                 K.scale(a.data(), d.alpha, out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kAddRowBroadcast: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.add_row_broadcast", out,
                TensorBytes(x) + TensorBytes(b));
      Dispatch(x.rows(), RowGrainElems(x.cols()), "nn.add_row_broadcast",
               [&](int64_t rb, int64_t re) {
                 K.add_row_broadcast(x.data(), b.data(), out.data(), rb, re,
                                     x.cols());
               });
      return;
    }
    case OpKind::kMulColBroadcast: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& c = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mul_col_broadcast", out,
                TensorBytes(x) + TensorBytes(c));
      Dispatch(x.rows(), RowGrainElems(x.cols()), "nn.mul_col_broadcast",
               [&](int64_t rb, int64_t re) {
                 K.mul_col_broadcast(x.data(), c.data(), out.data(), rb, re,
                                     x.cols());
               });
      return;
    }
    case OpKind::kRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.relu", out, TensorBytes(out));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.relu",
               [&](int64_t bi, int64_t ei) {
                 K.relu(x.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kLeakyRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.leaky_relu", out, TensorBytes(x));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain,
               "nn.leaky_relu", [&](int64_t bi, int64_t ei) {
                 K.leaky_relu(x.data(), d.alpha, out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kSigmoid: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.sigmoid", out, TensorBytes(x));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.sigmoid",
               [&](int64_t bi, int64_t ei) {
                 kernels::SigmoidForward(x.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kTanh: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.tanh", out, TensorBytes(x));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.tanh",
               [&](int64_t bi, int64_t ei) {
                 kernels::TanhForward(x.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kSoftmaxRows: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.softmax_rows", out, TensorBytes(x));
      Dispatch(x.rows(), RowGrainElems(x.cols()), "nn.softmax_rows",
               [&](int64_t rb, int64_t re) {
                 kernels::SoftmaxRowsForward(x.data(), out.data(), rb, re,
                                             x.cols());
               });
      return;
    }
    case OpKind::kConcatCols: {
      std::vector<const float*> ins;
      std::vector<int> widths;
      ins.reserve(d.inputs.size());
      widths.reserve(d.inputs.size());
      for (int in : d.inputs) {
        const Tensor& t = InputValue(nodes, in);
        ins.push_back(t.data());
        widths.push_back(t.cols());
      }
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.concat_cols", out, TensorBytes(out));
      const int total = out.cols();
      float* o = out.data();
      Dispatch(out.rows(), RowGrainElems(total), "nn.concat_cols",
               [&](int64_t rb, int64_t re) {
                 for (int64_t r = rb; r < re; ++r) {
                   float* dst = o + r * total;
                   for (size_t k = 0; k < ins.size(); ++k) {
                     const float* src = ins[k] + r * widths[k];
                     std::copy(src, src + widths[k], dst);
                     dst += widths[k];
                   }
                 }
               });
      return;
    }
    case OpKind::kSliceCols: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.slice_cols", out, TensorBytes(out));
      const int xc = x.cols(), count = out.cols(), start = d.slice_start;
      const float* xp = x.data();
      float* o = out.data();
      Dispatch(out.rows(), RowGrainElems(count), "nn.slice_cols",
               [&](int64_t rb, int64_t re) {
                 for (int64_t r = rb; r < re; ++r) {
                   const float* src = xp + r * xc + start;
                   std::copy(src, src + count, o + r * count);
                 }
               });
      return;
    }
    case OpKind::kRowwiseDot: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.rowwise_dot", out, TensorBytes(a) + TensorBytes(b));
      Dispatch(a.rows(), RowGrainElems(a.cols()), "nn.rowwise_dot",
               [&](int64_t rb, int64_t re) {
                 kernels::RowwiseDotForward(a.data(), b.data(), out.data(),
                                            rb, re, a.cols());
               });
      return;
    }
    case OpKind::kDropout: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& mask = *d.mask;
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.dropout", out, TensorBytes(x) + TensorBytes(mask));
      Dispatch(static_cast<int64_t>(out.size()), kElementGrain, "nn.mul",
               [&](int64_t bi, int64_t ei) {
                 K.mul(x.data(), mask.data(), out.data(), bi, ei);
               });
      return;
    }
    case OpKind::kGatherRows: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.gather_rows", out, TensorBytes(out));
      const int cols = x.cols();
      const int* idx = d.index->data();
      Dispatch(static_cast<int64_t>(d.index->size()), RowGrainElems(cols),
               "nn.gather_rows", [&](int64_t eb, int64_t ee) {
                 kernels::GatherRowsForward(x.data(), idx + eb, ee - eb,
                                            out.data() + eb * cols, cols);
               });
      return;
    }
    case OpKind::kSegmentSoftmax: {
      const Tensor& s = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.segment_softmax", out, TensorBytes(s));
      // Cross-element segment reductions: one ordered pass (the segment
      // max/sum accumulation order is the contract).
      kernels::SegmentSoftmaxForward(s.data(), d.index->data(), s.rows(),
                                     d.num_segments, out.data());
      return;
    }
    case OpKind::kSegmentSum: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      out.Fill(0.0f);  // arena buffers carry the previous step's values
      ProfileOp("tape.segment_sum", out, TensorBytes(x));
      kernels::SegmentSumForward(x.data(), d.index->data(), x.rows(),
                                 out.data(), x.cols());
      return;
    }
    case OpKind::kSegmentMean: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      out.Fill(0.0f);
      ProfileOp("tape.segment_mean", out, TensorBytes(x));
      kernels::SegmentMeanForward(x.data(), d.index->data(),
                                  d.counts->data(), x.rows(), out.data(),
                                  x.cols());
      return;
    }
    case OpKind::kMeanAll: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mean_all", out, TensorBytes(x));
      // Tensor::Sum folds fixed-grain partials left-to-right; that
      // association is the contract at every thread count.
      out.at(0, 0) = static_cast<float>(x.Sum() / x.size());
      return;
    }
    case OpKind::kMseLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mse_loss", out, TensorBytes(p) + TensorBytes(t));
      out.at(0, 0) = static_cast<float>(
          kernels::MseForward(p.data(), t.data(),
                              static_cast<int64_t>(p.size())));
      return;
    }
    case OpKind::kMaeLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      Tensor& out = EnsureOut(node);
      ProfileOp("tape.mae_loss", out, TensorBytes(p) + TensorBytes(t));
      out.at(0, 0) = static_cast<float>(
          kernels::MaeForward(p.data(), t.data(),
                              static_cast<int64_t>(p.size())));
      return;
    }
  }
  O2SR_CHECK(false);  // unreachable: every kind returns above
}

void ExecuteBackward(std::vector<TapeNode>& nodes, int id) {
  TapeNode& node = nodes[static_cast<size_t>(id)];
  const OpDesc& d = node.desc;
  if (d.kind == OpKind::kInput) return;  // no gradient leaves the tape
  const kernels::KernelTable& K = kernels::Active();
  const Tensor& g = GradSlot(nodes, id);
  const int64_t size = static_cast<int64_t>(g.size());
  switch (d.kind) {
    case OpKind::kInput:
      return;
    case OpKind::kParam:
      d.param->grad.AddInPlace(g);
      return;
    case OpKind::kMatMul: {
      // dA += dC * B^T ; dB += A^T * dC. Accumulate-mode kernels replicate
      // the reference temp-then-add (the row sum is built first, then added
      // once per element), without materializing the temps.
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      const GradOut ga = WriteGrad(nodes, d.inputs[0]);
      const GradOut gb = WriteGrad(nodes, d.inputs[1]);
      const int m = a.rows(), k = a.cols(), n = b.cols();
      ProfileOp("tape.matmul_bwd", g, TensorBytes(a) + TensorBytes(b));
      Dispatch(m, RowGrain(int64_t{2} * n * k), "nn.matmul_tb",
               [&](int64_t rb, int64_t re) {
                 K.matmul_tb_rows(g.data(), b.data(), ga.data, rb, re,
                                  /*k=*/n, /*n=*/k, ga.accumulate);
               });
      Dispatch(k, RowGrain(int64_t{2} * m * n), "nn.matmul_ta",
               [&](int64_t rb, int64_t re) {
                 K.matmul_ta_rows(a.data(), g.data(), gb.data, rb, re,
                                  /*m=*/k, /*k=*/m, /*n=*/n, gb.accumulate);
               });
      return;
    }
    case OpKind::kAdd: {
      const GradOut ga = WriteGrad(nodes, d.inputs[0]);
      const GradOut gb = WriteGrad(nodes, d.inputs[1]);
      Dispatch(size, kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 K.acc_add(ga.data, g.data(), bi, ei, ga.accumulate);
                 K.acc_add(gb.data, g.data(), bi, ei, gb.accumulate);
               });
      return;
    }
    case OpKind::kAddN: {
      std::vector<GradOut> gs;
      gs.reserve(d.inputs.size());
      for (int in : d.inputs) gs.push_back(WriteGrad(nodes, in));
      Dispatch(size, kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 for (const GradOut& gi : gs) {
                   K.acc_add(gi.data, g.data(), bi, ei, gi.accumulate);
                 }
               });
      return;
    }
    case OpKind::kSub: {
      const GradOut ga = WriteGrad(nodes, d.inputs[0]);
      const GradOut gb = WriteGrad(nodes, d.inputs[1]);
      Dispatch(size, kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 K.acc_add(ga.data, g.data(), bi, ei, ga.accumulate);
                 K.acc_sub(gb.data, g.data(), bi, ei, gb.accumulate);
               });
      return;
    }
    case OpKind::kMul: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      const GradOut ga = WriteGrad(nodes, d.inputs[0]);
      const GradOut gb = WriteGrad(nodes, d.inputs[1]);
      Dispatch(size, kElementGrain, "nn.acc_mul",
               [&](int64_t bi, int64_t ei) {
                 K.acc_mul(ga.data, g.data(), b.data(), bi, ei,
                           ga.accumulate);
                 K.acc_mul(gb.data, g.data(), a.data(), bi, ei,
                           gb.accumulate);
               });
      return;
    }
    case OpKind::kScale: {
      const GradOut ga = WriteGrad(nodes, d.inputs[0]);
      Dispatch(size, kElementGrain, "nn.acc_scale",
               [&](int64_t bi, int64_t ei) {
                 K.acc_scale(ga.data, g.data(), d.alpha, bi, ei,
                             ga.accumulate);
               });
      return;
    }
    case OpKind::kAddRowBroadcast: {
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      const GradOut gb = WriteGrad(nodes, d.inputs[1]);
      Dispatch(size, kElementGrain, "nn.acc_add",
               [&](int64_t bi, int64_t ei) {
                 K.acc_add(gx.data, g.data(), bi, ei, gx.accumulate);
               });
      // Bias gradient sums rows in order (the accumulation order pins the
      // result); runs unchunked.
      kernels::ColSumAcc(g.data(), gb.data, g.rows(), g.cols(),
                         gb.accumulate);
      return;
    }
    case OpKind::kMulColBroadcast: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const Tensor& c = InputValue(nodes, d.inputs[1]);
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      const GradOut gc = WriteGrad(nodes, d.inputs[1]);
      Dispatch(g.rows(), RowGrainElems(g.cols()), "nn.acc_mul_col_bwd_x",
               [&](int64_t rb, int64_t re) {
                 K.acc_mul_col_bwd_x(g.data(), c.data(), gx.data, rb, re,
                                     g.cols(), gx.accumulate);
               });
      Dispatch(g.rows(), RowGrainElems(g.cols()), "nn.mul_col_bwd_col",
               [&](int64_t rb, int64_t re) {
                 kernels::MulColBwdColAcc(g.data(), x.data(), gc.data, rb,
                                          re, g.cols(), gc.accumulate);
               });
      return;
    }
    case OpKind::kRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      Dispatch(size, kElementGrain, "nn.acc_relu_bwd",
               [&](int64_t bi, int64_t ei) {
                 K.acc_relu_bwd(x.data(), g.data(), gx.data, bi, ei,
                                gx.accumulate);
               });
      return;
    }
    case OpKind::kLeakyRelu: {
      const Tensor& x = InputValue(nodes, d.inputs[0]);
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      Dispatch(size, kElementGrain, "nn.acc_leaky_bwd",
               [&](int64_t bi, int64_t ei) {
                 K.acc_leaky_bwd(x.data(), d.alpha, g.data(), gx.data, bi,
                                 ei, gx.accumulate);
               });
      return;
    }
    case OpKind::kSigmoid: {
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      Dispatch(size, kElementGrain, "nn.acc_sigmoid_bwd",
               [&](int64_t bi, int64_t ei) {
                 K.acc_sigmoid_bwd(node.value.data(), g.data(), gx.data, bi,
                                   ei, gx.accumulate);
               });
      return;
    }
    case OpKind::kTanh: {
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      Dispatch(size, kElementGrain, "nn.acc_tanh_bwd",
               [&](int64_t bi, int64_t ei) {
                 K.acc_tanh_bwd(node.value.data(), g.data(), gx.data, bi, ei,
                                gx.accumulate);
               });
      return;
    }
    case OpKind::kSoftmaxRows: {
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      Dispatch(g.rows(), RowGrainElems(g.cols()), "nn.softmax_rows_bwd",
               [&](int64_t rb, int64_t re) {
                 kernels::SoftmaxRowsBackward(node.value.data(), g.data(),
                                              gx.data, rb, re, g.cols(),
                                              gx.accumulate);
               });
      return;
    }
    case OpKind::kConcatCols: {
      std::vector<kernels::ConcatGrad> gs;
      gs.reserve(d.inputs.size());
      for (int in : d.inputs) {
        const GradOut gi = WriteGrad(nodes, in);
        gs.push_back({gi.data, nodes[static_cast<size_t>(in)].desc.cols,
                      gi.accumulate});
      }
      Dispatch(g.rows(), RowGrainElems(g.cols()), "nn.concat_cols_bwd",
               [&](int64_t rb, int64_t re) {
                 kernels::ConcatColsBackward(g.data(), gs.data(),
                                             static_cast<int>(gs.size()), rb,
                                             re);
               });
      return;
    }
    case OpKind::kSliceCols: {
      // A partial writer: columns outside the slice keep what the slot
      // holds, so an unwritten slot is zero-filled first.
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      const int xc = gx.cols(), count = g.cols(), start = d.slice_start;
      Dispatch(g.rows(), RowGrainElems(count), "nn.acc_add",
               [&](int64_t rb, int64_t re) {
                 for (int64_t r = rb; r < re; ++r) {
                   float* dst = gx.data() + r * xc + start;
                   const float* src = g.data() + r * count;
                   for (int c = 0; c < count; ++c) dst[c] += src[c];
                 }
               });
      return;
    }
    case OpKind::kRowwiseDot: {
      const Tensor& a = InputValue(nodes, d.inputs[0]);
      const Tensor& b = InputValue(nodes, d.inputs[1]);
      const GradOut ga = WriteGrad(nodes, d.inputs[0]);
      const GradOut gb = WriteGrad(nodes, d.inputs[1]);
      Dispatch(a.rows(), RowGrainElems(a.cols()), "nn.acc_rowwise_dot_bwd",
               [&](int64_t rb, int64_t re) {
                 K.acc_rowwise_dot_bwd(g.data(), a.data(), b.data(), ga.data,
                                       gb.data, rb, re, a.cols(),
                                       ga.accumulate, gb.accumulate);
               });
      return;
    }
    case OpKind::kDropout: {
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      const Tensor& mask = *d.mask;
      Dispatch(size, kElementGrain, "nn.acc_mul",
               [&](int64_t bi, int64_t ei) {
                 K.acc_mul(gx.data, g.data(), mask.data(), bi, ei,
                           gx.accumulate);
               });
      return;
    }
    case OpKind::kGatherRows: {
      // Scatter-add with possibly duplicate indices: e-order is the
      // contract, runs unchunked. A partial writer (rows no index names
      // keep what the slot holds), so an unwritten slot is zero-filled.
      Tensor& gx = GradSlot(nodes, d.inputs[0]);
      kernels::GatherRowsBackward(g.data(), d.index->data(),
                                  static_cast<int64_t>(d.index->size()),
                                  gx.data(), gx.cols());
      return;
    }
    case OpKind::kSegmentSoftmax: {
      const GradOut gs = WriteGrad(nodes, d.inputs[0]);
      kernels::SegmentSoftmaxBackward(node.value.data(), g.data(),
                                      d.index->data(), node.value.rows(),
                                      d.num_segments, gs.data,
                                      gs.accumulate);
      return;
    }
    case OpKind::kSegmentSum: {
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      const int cols = d.cols;
      const int* seg = d.index->data();
      Dispatch(static_cast<int64_t>(d.index->size()), RowGrainElems(cols),
               "nn.segment_sum_bwd", [&](int64_t eb, int64_t ee) {
                 kernels::SegmentSumBackward(g.data(), seg + eb, ee - eb,
                                             gx.data + eb * cols, cols,
                                             gx.accumulate);
               });
      return;
    }
    case OpKind::kSegmentMean: {
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      const int cols = d.cols;
      const int* seg = d.index->data();
      const int* counts = d.counts->data();
      Dispatch(static_cast<int64_t>(d.index->size()), RowGrainElems(cols),
               "nn.segment_mean_bwd", [&](int64_t eb, int64_t ee) {
                 kernels::SegmentMeanBackward(g.data(), seg + eb, counts,
                                              ee - eb, gx.data + eb * cols,
                                              cols, gx.accumulate);
               });
      return;
    }
    case OpKind::kMeanAll: {
      const OpDesc& dx = nodes[static_cast<size_t>(d.inputs[0])].desc;
      const int64_t n = static_cast<int64_t>(dx.rows) * dx.cols;
      const GradOut gx = WriteGrad(nodes, d.inputs[0]);
      const float gv = g.at(0, 0) / static_cast<float>(n);
      Dispatch(n, kElementGrain, "nn.acc_const", [&](int64_t bi, int64_t ei) {
        K.acc_const(gx.data, gv, bi, ei, gx.accumulate);
      });
      return;
    }
    case OpKind::kMseLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      const GradOut gp = WriteGrad(nodes, d.inputs[0]);
      const GradOut gt = WriteGrad(nodes, d.inputs[1]);
      const float scale = 2.0f * g.at(0, 0) / static_cast<float>(p.size());
      Dispatch(static_cast<int64_t>(p.size()), kElementGrain, "nn.mse_bwd",
               [&](int64_t bi, int64_t ei) {
                 kernels::MseBackward(p.data() + bi, t.data() + bi, scale,
                                      gp.data + bi, gt.data + bi, ei - bi,
                                      gp.accumulate, gt.accumulate);
               });
      return;
    }
    case OpKind::kMaeLoss: {
      const Tensor& p = InputValue(nodes, d.inputs[0]);
      const Tensor& t = InputValue(nodes, d.inputs[1]);
      const GradOut gp = WriteGrad(nodes, d.inputs[0]);
      const GradOut gt = WriteGrad(nodes, d.inputs[1]);
      const float scale = g.at(0, 0) / static_cast<float>(p.size());
      Dispatch(static_cast<int64_t>(p.size()), kElementGrain, "nn.mae_bwd",
               [&](int64_t bi, int64_t ei) {
                 kernels::MaeBackward(p.data() + bi, t.data() + bi, scale,
                                      gp.data + bi, gt.data + bi, ei - bi,
                                      gp.accumulate, gt.accumulate);
               });
      return;
    }
  }
  O2SR_CHECK(false);  // unreachable
}

void FusedLinearForward(std::vector<TapeNode>& nodes, int matmul_id,
                        int bias_id, int act_id) {
  const OpDesc& md = nodes[static_cast<size_t>(matmul_id)].desc;
  const Tensor& a = InputValue(nodes, md.inputs[0]);
  const Tensor& w = InputValue(nodes, md.inputs[1]);
  const float* bias = nullptr;
  uint64_t operand_bytes = TensorBytes(a) + TensorBytes(w);
  if (bias_id >= 0) {
    const Tensor& b =
        InputValue(nodes, nodes[static_cast<size_t>(bias_id)].desc.inputs[1]);
    bias = b.data();
    operand_bytes += TensorBytes(b);
  }
  const int out_id = act_id >= 0 ? act_id : bias_id;
  TapeNode& out_node = nodes[static_cast<size_t>(out_id)];
  const OpKind act =
      act_id >= 0 ? out_node.desc.kind : OpKind::kInput /*none*/;
  const float slope = act_id >= 0 ? out_node.desc.alpha : 0.0f;
  Tensor& out = EnsureOut(out_node);
  const int k = a.cols(), n = w.cols();
  ProfileOp("plan.linear_act", out, operand_bytes);
  const kernels::KernelTable& K = kernels::Active();
  Dispatch(a.rows(), RowGrain(int64_t{2} * k * n), "nn.linear_act",
           [&](int64_t rb, int64_t re) {
             // Row block: matmul, then bias and activation in place. Same
             // per-element expressions as the unfused ops, so the result
             // is bit-identical — only the intermediates go away.
             K.matmul_rows(a.data(), w.data(), out.data(), rb, re, k, n,
                           /*accumulate=*/false);
             if (bias != nullptr) {
               K.add_row_broadcast(out.data(), bias, out.data(), rb, re, n);
             }
             const int64_t eb = rb * n, ee = re * n;
             switch (act) {
               case OpKind::kRelu:
                 K.relu(out.data(), out.data(), eb, ee);
                 break;
               case OpKind::kLeakyRelu:
                 K.leaky_relu(out.data(), slope, out.data(), eb, ee);
                 break;
               case OpKind::kSigmoid:
                 kernels::SigmoidForward(out.data(), out.data(), eb, ee);
                 break;
               case OpKind::kTanh:
                 kernels::TanhForward(out.data(), out.data(), eb, ee);
                 break;
               default:
                 break;  // bias-only group
             }
           });
}

void FusedLinearBackward(std::vector<TapeNode>& nodes, int matmul_id,
                         int bias_id, int act_id) {
  const kernels::KernelTable& K = kernels::Active();
  if (act_id >= 0) {
    // Activation backward into the pre-activation node's grad slot, read
    // from the activation *output* (the pre-activation value was fused
    // away; for relu/leaky-relu sign(out) == sign(in) because the slope is
    // positive, for sigmoid/tanh the reference backward uses the output).
    TapeNode& act = nodes[static_cast<size_t>(act_id)];
    const Tensor& g = GradSlot(nodes, act_id);
    const Tensor& y = act.value;
    const int pre_id = bias_id >= 0 ? bias_id : matmul_id;
    const GradOut gpre = WriteGrad(nodes, pre_id);
    const bool acc = gpre.accumulate;
    const int64_t sz = static_cast<int64_t>(g.size());
    switch (act.desc.kind) {
      case OpKind::kRelu:
        Dispatch(sz, kElementGrain, "nn.acc_relu_bwd",
                 [&](int64_t bi, int64_t ei) {
                   K.acc_relu_bwd(y.data(), g.data(), gpre.data, bi, ei, acc);
                 });
        break;
      case OpKind::kLeakyRelu:
        Dispatch(sz, kElementGrain, "nn.acc_leaky_bwd",
                 [&](int64_t bi, int64_t ei) {
                   K.acc_leaky_bwd(y.data(), act.desc.alpha, g.data(),
                                   gpre.data, bi, ei, acc);
                 });
        break;
      case OpKind::kSigmoid:
        Dispatch(sz, kElementGrain, "nn.acc_sigmoid_bwd",
                 [&](int64_t bi, int64_t ei) {
                   K.acc_sigmoid_bwd(y.data(), g.data(), gpre.data, bi, ei,
                                     acc);
                 });
        break;
      case OpKind::kTanh:
        Dispatch(sz, kElementGrain, "nn.acc_tanh_bwd",
                 [&](int64_t bi, int64_t ei) {
                   K.acc_tanh_bwd(y.data(), g.data(), gpre.data, bi, ei, acc);
                 });
        break;
      default:
        O2SR_CHECK(false);  // not an activation
    }
  }
  if (bias_id >= 0) {
    // AddRowBroadcast backward: forward the row grad to the matmul node
    // (the reference's gx += g), then column-sum into the bias leaf.
    TapeNode& bias = nodes[static_cast<size_t>(bias_id)];
    const Tensor& g2 = GradSlot(nodes, bias_id);
    const GradOut g1 = WriteGrad(nodes, matmul_id);
    Dispatch(static_cast<int64_t>(g2.size()), kElementGrain, "nn.acc_add",
             [&](int64_t bi, int64_t ei) {
               K.acc_add(g1.data, g2.data(), bi, ei, g1.accumulate);
             });
    const GradOut gb = WriteGrad(nodes, bias.desc.inputs[1]);
    kernels::ColSumAcc(g2.data(), gb.data, g2.rows(), g2.cols(),
                       gb.accumulate);
  }
  // The matmul backward proper (reads the matmul node's own grad slot,
  // records tape.matmul_bwd like the generic path).
  ExecuteBackward(nodes, matmul_id);
}

void FusedScatterForward(std::vector<TapeNode>& nodes, int mul_id,
                         int segsum_id) {
  const OpDesc& md = nodes[static_cast<size_t>(mul_id)].desc;
  const Tensor& x = InputValue(nodes, md.inputs[0]);
  const Tensor& col = InputValue(nodes, md.inputs[1]);
  TapeNode& out_node = nodes[static_cast<size_t>(segsum_id)];
  Tensor& out = EnsureOut(out_node);
  out.Fill(0.0f);
  ProfileOp("plan.mul_col_segment_sum", out,
            TensorBytes(x) + TensorBytes(col));
  // Scatter-add with duplicate segments: e-order is the contract, runs
  // unchunked.
  kernels::MulColSegmentSumForward(x.data(), col.data(),
                                   out_node.desc.index->data(), x.rows(),
                                   out.data(), x.cols());
}

}  // namespace detail
}  // namespace o2sr::nn
