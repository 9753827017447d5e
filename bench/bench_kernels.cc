// Microbenchmarks of the nn kernel layer and the two-phase (planned)
// executor — not a paper table; this is the performance baseline for the
// library itself, in the same BENCH json format as the experiment benches
// so tools/bench_diff can gate it. Two kinds of values ride in the report:
//
//  * timings (`*_ms`, skipped under --ignore-timings): the dispatch-table
//    matmul family scalar vs SIMD, and a representative attention-shaped
//    training step planned vs eager;
//  * exact counts (zero-tolerance in bench_diff): scalar/SIMD and
//    planned/eager mismatch counts (must be 0 — the bit-exactness
//    contract), tape node count, fused-region and chunk counts from the
//    profiler (pure functions of the workload shapes, identical on every
//    machine and thread count — a drift means the compiler fused
//    differently, which is exactly what the gate should catch).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "nn/kernels/kernels.h"
#include "nn/parameter.h"
#include "nn/plan.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "obs/profiler.h"

namespace o2sr {
namespace {

// The model's hot shape family: thousands of edge rows, narrow embeddings.
constexpr int kRows = 2850;
constexpr int kDim = 32;

size_t CountMismatch(const nn::Tensor& a, const nn::Tensor& b) {
  size_t bad = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) ++bad;
  }
  return bad;
}

// One attention-shaped step: a fused linear+activation group, a second
// matmul+activation, a column-broadcast + segment-sum scatter group, and a
// scalar loss.
struct StepSetup {
  nn::ParameterStore store;
  nn::Parameter* w1;
  nn::Parameter* b1;
  nn::Parameter* w2;
  nn::Tensor x;
  nn::Tensor col;
  std::vector<int> segment;
  int num_segments;

  StepSetup() : x(kRows, kDim), col(kRows, 1) {
    Rng rng(99);
    w1 = store.CreateXavier("w1", kDim, kDim, rng);
    b1 = store.CreateZeros("b1", 1, kDim);
    w2 = store.CreateXavier("w2", kDim, kDim, rng);
    x = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
    col = nn::Tensor::RandomNormal(kRows, 1, 0.5, rng);
    segment.resize(kRows);
    for (int i = 0; i < kRows; ++i) segment[i] = i / 10;
    num_segments = (kRows + 9) / 10;
  }

  // Runs forward + backward once; returns the pooled output values.
  nn::Tensor Run(size_t* nodes_out = nullptr) {
    nn::Tape tape;
    nn::Value in = tape.Input(x);
    nn::Value h1 = tape.Relu(tape.AddRowBroadcast(
        tape.MatMul(in, tape.Param(w1)), tape.Param(b1)));
    nn::Value h2 = tape.Tanh(tape.MatMul(h1, tape.Param(w2)));
    nn::Value weighted = tape.MulColBroadcast(h2, tape.Input(col));
    nn::Value pooled = tape.SegmentSum(weighted, segment, num_segments);
    nn::Value loss = tape.MeanAll(tape.Mul(pooled, pooled));
    tape.Backward(loss);
    if (nodes_out != nullptr) *nodes_out = tape.num_nodes();
    return tape.value(pooled);
  }
};

struct TimedPair {
  const char* label_scalar;
  const char* label_simd;
  double ms_scalar = 0.0;
  double ms_simd = 0.0;
};

}  // namespace

int Main() {
  bench::BenchReport report(
      "kernels", "Kernel dispatch-table and planned-executor baseline",
      "library baseline (no paper table)");
  const bool small = bench::CurrentScale() == bench::Scale::kSmall;
  const int kernel_reps = small ? 40 : 160;
  const int step_reps = small ? 10 : 40;

  // --- dispatch-table matmul family, scalar vs active SIMD level ---------
  const nn::kernels::KernelTable& scalar = nn::kernels::ScalarTable();
  const nn::kernels::KernelTable& active = nn::kernels::Active();
  std::printf("kernel tables: active SIMD level = %s\n",
              nn::kernels::SimdName(nn::kernels::ActiveSimd()));

  Rng rng(7);
  const nn::Tensor a = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
  const nn::Tensor b = nn::Tensor::RandomNormal(kDim, kDim, 1.0, rng);
  const nn::Tensor a_tall = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
  const nn::Tensor b_wide = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
  nn::Tensor c_scalar(kRows, kDim), c_simd(kRows, kDim);
  nn::Tensor d_scalar(kDim, kDim), d_simd(kDim, kDim);
  size_t mismatches = 0;

  // matmul_rows: [kRows x kDim] * [kDim x kDim].
  TimedPair mm{"matmul_scalar_ms", "matmul_simd_ms"};
  {
    int64_t t0 = common::NowMicros();
    for (int r = 0; r < kernel_reps; ++r) {
      c_scalar.Fill(0.0f);
      scalar.matmul_rows(a.data(), b.data(), c_scalar.data(), 0, kRows, kDim,
                         kDim, false);
    }
    mm.ms_scalar = (common::NowMicros() - t0) / 1e3;
    t0 = common::NowMicros();
    for (int r = 0; r < kernel_reps; ++r) {
      c_simd.Fill(0.0f);
      active.matmul_rows(a.data(), b.data(), c_simd.data(), 0, kRows, kDim,
                         kDim, false);
    }
    mm.ms_simd = (common::NowMicros() - t0) / 1e3;
    mismatches += CountMismatch(c_scalar, c_simd);
  }

  // matmul_ta_rows: [kRows x kDim]^T * [kRows x kDim] (the weight-gradient
  // shape: long reduction, tiny output).
  TimedPair ta{"matmul_ta_scalar_ms", "matmul_ta_simd_ms"};
  {
    int64_t t0 = common::NowMicros();
    for (int r = 0; r < kernel_reps; ++r) {
      d_scalar.Fill(0.0f);
      scalar.matmul_ta_rows(a_tall.data(), b_wide.data(), d_scalar.data(), 0,
                            kDim, kDim, kRows, kDim, false);
    }
    ta.ms_scalar = (common::NowMicros() - t0) / 1e3;
    t0 = common::NowMicros();
    for (int r = 0; r < kernel_reps; ++r) {
      d_simd.Fill(0.0f);
      active.matmul_ta_rows(a_tall.data(), b_wide.data(), d_simd.data(), 0,
                            kDim, kDim, kRows, kDim, false);
    }
    ta.ms_simd = (common::NowMicros() - t0) / 1e3;
    mismatches += CountMismatch(d_scalar, d_simd);
  }

  // matmul_tb_rows: [kRows x kDim] * [kDim x kDim]^T (the input-gradient
  // shape; b is square here so the transpose view is valid).
  TimedPair tb{"matmul_tb_scalar_ms", "matmul_tb_simd_ms"};
  {
    int64_t t0 = common::NowMicros();
    for (int r = 0; r < kernel_reps; ++r) {
      c_scalar.Fill(0.0f);
      scalar.matmul_tb_rows(a.data(), b.data(), c_scalar.data(), 0, kRows,
                            kDim, kDim, false);
    }
    tb.ms_scalar = (common::NowMicros() - t0) / 1e3;
    t0 = common::NowMicros();
    for (int r = 0; r < kernel_reps; ++r) {
      c_simd.Fill(0.0f);
      active.matmul_tb_rows(a.data(), b.data(), c_simd.data(), 0, kRows, kDim,
                            kDim, false);
    }
    tb.ms_simd = (common::NowMicros() - t0) / 1e3;
    mismatches += CountMismatch(c_scalar, c_simd);
  }

  for (const TimedPair& p : {mm, ta, tb}) {
    report.AddValue(p.label_scalar, p.ms_scalar);
    report.AddValue(p.label_simd, p.ms_simd);
    std::printf("%-22s %8.1f ms   %-20s %8.1f ms\n", p.label_scalar,
                p.ms_scalar, p.label_simd, p.ms_simd);
  }
  report.AddValue("kernel_mismatch_count", static_cast<double>(mismatches));

  // --- planned vs eager training step ------------------------------------
  StepSetup setup;
  size_t tape_nodes = 0;
  double planned_ms = 0.0, eager_ms = 0.0;
  size_t step_mismatches = 0;
  {
    nn::Tape::SetModeForTest(nn::Tape::Mode::kPlanned);
    setup.store.ZeroGrads();
    nn::Tensor planned_out = setup.Run(&tape_nodes);  // warm the plan cache
    int64_t t0 = common::NowMicros();
    for (int r = 0; r < step_reps; ++r) {
      setup.store.ZeroGrads();
      planned_out = setup.Run();
    }
    planned_ms = (common::NowMicros() - t0) / 1e3 / step_reps;

    nn::Tape::SetModeForTest(nn::Tape::Mode::kEager);
    setup.store.ZeroGrads();
    nn::Tensor eager_out = setup.Run();
    t0 = common::NowMicros();
    for (int r = 0; r < step_reps; ++r) {
      setup.store.ZeroGrads();
      eager_out = setup.Run();
    }
    eager_ms = (common::NowMicros() - t0) / 1e3 / step_reps;
    nn::Tape::SetModeForTest(nn::Tape::Mode::kEnv);
    step_mismatches = CountMismatch(planned_out, eager_out);
  }
  report.AddValue("planned_step_ms", planned_ms);
  report.AddValue("eager_step_ms", eager_ms);
  report.AddValue("planned_vs_eager_mismatch_count",
                  static_cast<double>(step_mismatches));
  report.AddValue("tape_nodes_count", static_cast<double>(tape_nodes));
  std::printf("step: planned %.2f ms  eager %.2f ms  (%zu tape nodes)\n",
              planned_ms, eager_ms, tape_nodes);

  // --- fusion / chunk counts via the profiler ----------------------------
  // Counts are pure functions of the workload shapes: identical across
  // machines, runs and thread counts (DESIGN.md §12-13), so they gate the
  // plan compiler's fusion decisions exactly.
  {
    obs::Profiler::Global().ResetForTest();
    obs::Profiler::Global().Enable(true);
    nn::Tape::SetModeForTest(nn::Tape::Mode::kPlanned);
    setup.store.ZeroGrads();
    setup.Run();
    nn::Tape::SetModeForTest(nn::Tape::Mode::kEnv);
    obs::Profiler::Global().Enable(false);
    const auto regions = obs::Profiler::Global().RegionSnapshot();
    const auto ops = obs::Profiler::Global().OpSnapshot();
    obs::Profiler::Global().ResetForTest();
    uint64_t chunks = 0, unnamed = 0;
    for (const auto& [name, r] : regions) {
      chunks += r.chunks;
      if (name == "(kernel)") unnamed = r.regions;
    }
    // Fusion dispatch counts come from the op records (the scatter group
    // is a sequential kernel, so it never opens a parallel region).
    const auto op_count = [&ops](const char* name) -> uint64_t {
      const auto it = ops.find(name);
      return it == ops.end() ? 0 : it->second.dispatches;
    };
    const uint64_t fused_linear = op_count("plan.linear_act");
    const uint64_t fused_scatter = op_count("plan.mul_col_segment_sum");
    report.AddValue("fused_linear_count", static_cast<double>(fused_linear));
    report.AddValue("fused_scatter_count",
                    static_cast<double>(fused_scatter));
    report.AddValue("step_chunks_count", static_cast<double>(chunks));
    report.AddValue("unnamed_region_count", static_cast<double>(unnamed));
    report.AddValue("plan_cache_count",
                    static_cast<double>(nn::PlanCache::Global().size()));
    std::printf("fusion: %llu linear_act, %llu scatter regions; "
                "%llu chunks, %llu unnamed\n",
                static_cast<unsigned long long>(fused_linear),
                static_cast<unsigned long long>(fused_scatter),
                static_cast<unsigned long long>(chunks),
                static_cast<unsigned long long>(unnamed));
  }
  return 0;
}

}  // namespace o2sr

int main() { return o2sr::Main(); }
