#include "nn/plan.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "exec/thread_pool.h"

namespace o2sr::nn {

namespace {

bool IsActivation(OpKind kind) {
  return kind == OpKind::kRelu || kind == OpKind::kLeakyRelu ||
         kind == OpKind::kSigmoid || kind == OpKind::kTanh;
}

// Exact structural signature of [begin, end): op kinds, shapes, scalar
// attributes and *relative* input ids (references before the segment keep
// their distance). Index contents are deliberately excluded — the schedule
// does not depend on them and execution always reads them from the node.
std::string SegmentKey(const std::vector<TapeNode>& nodes, int begin,
                       int end) {
  std::string key;
  key.reserve(static_cast<size_t>(end - begin) * 32);
  auto push32 = [&key](uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    key.append(buf, 4);
  };
  for (int i = begin; i < end; ++i) {
    const OpDesc& d = nodes[static_cast<size_t>(i)].desc;
    push32(static_cast<uint32_t>(d.kind));
    push32(static_cast<uint32_t>(d.rows));
    push32(static_cast<uint32_t>(d.cols));
    uint32_t alpha_bits;
    std::memcpy(&alpha_bits, &d.alpha, 4);
    push32(alpha_bits);
    push32(static_cast<uint32_t>(d.slice_start));
    push32(static_cast<uint32_t>(d.num_segments));
    push32(static_cast<uint32_t>(d.inputs.size()));
    for (int in : d.inputs) push32(static_cast<uint32_t>(in - begin));
  }
  return key;
}

}  // namespace

std::shared_ptr<const Plan> Plan::Compile(const std::vector<TapeNode>& nodes,
                                          int begin, int end) {
  auto plan = std::make_shared<Plan>();
  plan->begin = begin;
  plan->end = end;
  plan->steps.assign(static_cast<size_t>(end - begin), PlanStep{});
  auto step = [&](int id) -> PlanStep& {
    return plan->steps[static_cast<size_t>(id - begin)];
  };

  // In-segment consumer counts. A node consumed elsewhere (a later
  // segment, an external value read) is handled by on-demand recompute,
  // so fusion only requires the in-segment count to be exactly one.
  std::vector<int> uses(static_cast<size_t>(end - begin), 0);
  for (int i = begin; i < end; ++i) {
    for (int in : nodes[static_cast<size_t>(i)].desc.inputs) {
      if (in >= begin && in < end) ++uses[static_cast<size_t>(in - begin)];
    }
  }
  auto use_count = [&](int id) { return uses[static_cast<size_t>(id - begin)]; };

  for (int i = begin; i < end; ++i) {
    if (nodes[static_cast<size_t>(i)].desc.kind == OpKind::kParam) {
      step(i).role = PlanRole::kParamLeaf;
    }
  }

  for (int i = begin; i < end; ++i) {
    if (step(i).role != PlanRole::kDefault) continue;
    const OpKind kind = nodes[static_cast<size_t>(i)].desc.kind;

    if (kind == OpKind::kMatMul) {
      // Pattern A: greedily absorb a consecutive single-consumer
      // bias-add, then a consecutive single-consumer activation.
      int bias = -1, act = -1, tail = i;
      int j = i + 1;
      if (j < end && step(j).role == PlanRole::kDefault) {
        const OpDesc& d = nodes[static_cast<size_t>(j)].desc;
        if (d.kind == OpKind::kAddRowBroadcast && d.inputs[0] == i &&
            d.inputs[1] != i && use_count(i) == 1) {
          bias = j;
          tail = j;
          ++j;
        }
      }
      if (j < end && step(j).role == PlanRole::kDefault) {
        const OpDesc& d = nodes[static_cast<size_t>(j)].desc;
        if (IsActivation(d.kind) && d.inputs[0] == tail &&
            use_count(tail) == 1) {
          act = j;
          tail = j;
        }
      }
      if (bias >= 0 || act >= 0) {
        step(i).role = PlanRole::kLinearHead;
        step(i).bias_node = bias;
        step(i).act_node = act;
        if (bias >= 0) step(bias).role = PlanRole::kLinearInternal;
        if (act >= 0) step(act).role = PlanRole::kLinearInternal;
      }
      continue;
    }

    if (kind == OpKind::kMulColBroadcast) {
      const int j = i + 1;
      if (j < end && step(j).role == PlanRole::kDefault) {
        const OpDesc& d = nodes[static_cast<size_t>(j)].desc;
        if (d.kind == OpKind::kSegmentSum && d.inputs[0] == i &&
            use_count(i) == 1) {
          step(i).role = PlanRole::kScatterHead;
          step(i).tail = j;
          step(j).role = PlanRole::kScatterTail;
        }
      }
    }
  }
  return plan;
}

PlanCache& PlanCache::Global() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::shared_ptr<const Plan> PlanCache::GetOrCompile(
    const std::vector<TapeNode>& nodes, int begin, int end) {
  const std::string key = SegmentKey(nodes, begin, end);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) return it->second;
  }
  std::shared_ptr<const Plan> plan = Plan::Compile(nodes, begin, end);
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.size() >= kMaxPlans) plans_.clear();
  plans_.emplace(key, plan);
  return plan;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
}

bool PlanEnabledFromEnv() {
  // O2SR_PLAN's choices, in order: on|1|off|0|eager.
  static const bool enabled = common::EnvChoice(common::Knob::kPlan) < 2;
  return enabled;
}

namespace detail {

void RunPlanForward(const Plan& plan, std::vector<TapeNode>& nodes) {
  // One session per flushed segment: workers stay hot across every region
  // of the step instead of re-parking between ops.
  exec::Session session(exec::CurrentPool(), nullptr);
  for (int id = plan.begin; id < plan.end; ++id) {
    const PlanStep& s = plan.steps[static_cast<size_t>(id - plan.begin)];
    switch (s.role) {
      case PlanRole::kParamLeaf:
      case PlanRole::kLinearInternal:
      case PlanRole::kScatterTail:
        break;  // materialized (or redirected) elsewhere
      case PlanRole::kLinearHead:
        FusedLinearForward(nodes, id, s.bias_node, s.act_node);
        break;
      case PlanRole::kScatterHead:
        FusedScatterForward(nodes, id, s.tail);
        break;
      case PlanRole::kDefault:
        ExecuteForward(nodes, id);
        break;
    }
  }
}

void RunPlanBackward(const std::vector<PlanStep>& steps,
                     std::vector<TapeNode>& nodes, int loss_id) {
  exec::Session session(exec::CurrentPool(), nullptr);
  for (int id = loss_id; id >= 0; --id) {
    const PlanStep& s = steps[static_cast<size_t>(id)];
    switch (s.role) {
      case PlanRole::kLinearInternal:
        break;  // handled at the group head
      case PlanRole::kLinearHead:
        FusedLinearBackward(nodes, id, s.bias_node, s.act_node);
        break;
      default:
        // kScatterHead/kScatterTail backward is the generic pair: neither
        // op's backward reads the fused-away product.
        ExecuteBackward(nodes, id);
        break;
    }
  }
}

}  // namespace detail
}  // namespace o2sr::nn
