#ifndef O2SR_NN_PLAN_H_
#define O2SR_NN_PLAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/op_exec.h"

namespace o2sr::nn {

// Compiled execution schedules for tape segments (DESIGN.md §13).
//
// In planned mode (O2SR_PLAN unset/on) the tape records ops without running
// them; the first value/grad/Backward access flushes the pending segment:
// the segment's structural signature is looked up in the process-wide
// PlanCache, compiled once into a Plan — a per-node schedule with fusion
// groups — and executed inside one exec::Session so every parallel region
// of the step reuses the same hot worker set.
//
// Fusion rules (both patterns require consecutive node ids and
// single-consumer intermediates, which keeps the order of
// externally-visible gradient accumulations identical to eager mode):
//   A. MatMul [+ AddRowBroadcast] [+ Relu|LeakyRelu|Sigmoid|Tanh]
//      -> one "nn.linear_act" region; intermediates never materialize.
//   B. MulColBroadcast + SegmentSum
//      -> one "nn.mul_col_segment_sum" scatter; the edgewise product
//      never materializes.
//
// A Plan holds no tensors and no index data — it is pure schedule — so one
// cached Plan serves every step (and every serving thread) whose segment
// has the same structure.

// How the planned executor treats one node.
enum class PlanRole : uint8_t {
  kDefault,         // forward + backward through the shared op dispatcher
  kParamLeaf,       // forward skipped: InputValue reads Parameter::value
                    // directly (no per-step table copy); backward normal
  kLinearHead,      // pattern A head (the MatMul): fused forward/backward
  kLinearInternal,  // pattern A member: both passes handled at the head
  kScatterHead,     // pattern B head (the MulColBroadcast): fused forward,
                    // generic backward
  kScatterTail,     // pattern B tail (the SegmentSum): forward written by
                    // the head, generic backward
};

struct PlanStep {
  PlanRole role = PlanRole::kDefault;
  // Pattern A group members (absolute node ids, -1 when absent).
  int bias_node = -1;
  int act_node = -1;
  // Pattern B tail node id.
  int tail = -1;
};

class Plan {
 public:
  // Node id range [begin, end) this plan schedules.
  int begin = 0;
  int end = 0;
  // One step per node in [begin, end).
  std::vector<PlanStep> steps;

  // Analyzes the segment and builds the schedule (fusion legality only
  // depends on op kinds, shapes and the def-use structure, all known at
  // record time).
  static std::shared_ptr<const Plan> Compile(
      const std::vector<TapeNode>& nodes, int begin, int end);
};

// Process-wide cache keyed by the exact structural signature of a segment
// (op kinds, shapes, attributes and relative input ids — byte-for-byte, so
// two segments share a plan only when they are structurally identical).
class PlanCache {
 public:
  static PlanCache& Global();

  std::shared_ptr<const Plan> GetOrCompile(const std::vector<TapeNode>& nodes,
                                           int begin, int end);

  size_t size() const;
  void Clear();

 private:
  PlanCache() = default;

  // Recompiling is cheap; past this many cached plans the cache is simply
  // reset (a safety valve against unbounded structural variety, not an
  // LRU anyone should hit in practice).
  static constexpr size_t kMaxPlans = 256;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Plan>> plans_;
};

// True when O2SR_PLAN enables the planned executor (default on; "off",
// "0" and "eager" select the bit-identical eager reference path). Read
// once per process.
bool PlanEnabledFromEnv();

namespace detail {

// Executes a flushed segment's forward pass under one exec::Session.
void RunPlanForward(const Plan& plan, std::vector<TapeNode>& nodes);

// Reverse walk from loss_id to node 0 under one exec::Session. `steps` is
// the tape's per-node schedule (concatenated over its flushed segments).
// Every node id <= loss_id is visited, exactly like the eager walk.
void RunPlanBackward(const std::vector<PlanStep>& steps,
                     std::vector<TapeNode>& nodes, int loss_id);

}  // namespace detail
}  // namespace o2sr::nn

#endif  // O2SR_NN_PLAN_H_
