// Microbenchmarks of the nn kernel layer and the two-phase (planned)
// executor — not a paper table; this is the performance baseline for the
// library itself, in the same BENCH json format as the experiment benches
// so tools/bench_diff can gate it. Two kinds of values ride in the report:
//
//  * timings (`*_ms`, skipped under --ignore-timings): the dispatch-table
//    matmul family scalar vs SIMD, on the square kRows x 32 x 32 shape and
//    on the two narrow training shapes (the per-head attention projection
//    and a one-column output layer), and a representative attention-shaped
//    training step planned vs eager;
//  * exact counts (zero-tolerance in bench_diff): scalar/SIMD and
//    planned/eager mismatch counts (must be 0 — the bit-exactness
//    contract; bitwise, with any NaN equal to any NaN), tape node count,
//    fused-region and chunk counts from the profiler (pure functions of
//    the workload shapes, identical on every machine and thread count — a
//    drift means the compiler fused differently, which is exactly what the
//    gate should catch).

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
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

// Elements whose 32-bit patterns differ (so -0 != +0); any NaN equals any
// NaN, since NaN payloads are not part of the kernel contract.
size_t CountMismatch(const nn::Tensor& a, const nn::Tensor& b) {
  size_t bad = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i], y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::bit_cast<uint32_t>(x) != std::bit_cast<uint32_t>(y)) ++bad;
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

using KernelCall =
    std::function<void(const nn::kernels::KernelTable&, nn::Tensor&)>;

// Times `reps` calls of one matmul kernel on the scalar table and on the
// active one, each call from a zeroed `out`, reports the two totals as
// `<name>_scalar_ms` and `<name>_simd_ms`, and returns how many output
// elements of the two final results differ.
size_t TimeKernel(bench::BenchReport& report, const std::string& name,
                  int reps, int out_rows, int out_cols,
                  const KernelCall& call) {
  nn::Tensor out_scalar(out_rows, out_cols), out_simd(out_rows, out_cols);
  const auto time_table = [&](const nn::kernels::KernelTable& table,
                              nn::Tensor& out) {
    const int64_t t0 = common::NowMicros();
    for (int r = 0; r < reps; ++r) {
      out.Fill(0.0f);
      call(table, out);
    }
    return (common::NowMicros() - t0) / 1e3;
  };
  const double ms_scalar =
      time_table(nn::kernels::ScalarTable(), out_scalar);
  const double ms_simd = time_table(nn::kernels::Active(), out_simd);
  report.AddValue(name + "_scalar_ms", ms_scalar);
  report.AddValue(name + "_simd_ms", ms_simd);
  std::printf("%-22s scalar %8.1f ms   simd %8.1f ms\n", name.c_str(),
              ms_scalar, ms_simd);
  return CountMismatch(out_scalar, out_simd);
}

}  // namespace

int Main() {
  bench::BenchReport report(
      "kernels", "Kernel dispatch-table and planned-executor baseline",
      "library baseline (no paper table)");
  const bool small = bench::CurrentScale() == bench::Scale::kSmall;
  const int kernel_reps = small ? 40 : 160;
  const int step_reps = small ? 10 : 40;

  // --- dispatch-table matmul family, scalar vs active SIMD level ---------
  std::printf("kernel tables: active SIMD level = %s\n",
              nn::kernels::SimdName(nn::kernels::ActiveSimd()));
  using Table = nn::kernels::KernelTable;
  Rng rng(7);
  size_t mismatches = 0;

  // The square shape: [kRows x kDim] * [kDim x kDim], its weight gradient
  // (long reduction, tiny output) and its input gradient (b is square, so
  // the transpose view is valid).
  {
    const nn::Tensor a = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
    const nn::Tensor b = nn::Tensor::RandomNormal(kDim, kDim, 1.0, rng);
    const nn::Tensor a_tall = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
    const nn::Tensor b_wide = nn::Tensor::RandomNormal(kRows, kDim, 1.0, rng);
    mismatches += TimeKernel(
        report, "matmul", kernel_reps, kRows, kDim,
        [&](const Table& t, nn::Tensor& c) {
          t.matmul_rows(a.data(), b.data(), c.data(), 0, kRows, kDim, kDim,
                        false);
        });
    mismatches += TimeKernel(
        report, "matmul_ta", kernel_reps, kDim, kDim,
        [&](const Table& t, nn::Tensor& c) {
          t.matmul_ta_rows(a_tall.data(), b_wide.data(), c.data(), 0, kDim,
                           kDim, kRows, kDim, false);
        });
    mismatches += TimeKernel(
        report, "matmul_tb", kernel_reps, kRows, kDim,
        [&](const Table& t, nn::Tensor& c) {
          t.matmul_tb_rows(a.data(), b.data(), c.data(), 0, kRows, kDim,
                           kDim, false);
        });
  }

  // The narrow training shapes, forward and both gradients: a per-head
  // attention projection [1589 x 32] * [32 x 8] and a one-column output
  // layer [11055 x 64] * [64 x 1]. Repetitions scale so each shape does
  // about the square shape's work.
  struct Shape {
    int m, k, n;
  };
  for (const Shape s : {Shape{1589, 32, 8}, Shape{11055, 64, 1}}) {
    const int reps = static_cast<int>(static_cast<int64_t>(kernel_reps) *
                                      kRows * kDim * kDim /
                                      (int64_t{s.m} * s.k * s.n));
    char tag[40];
    std::snprintf(tag, sizeof tag, "_%dx%dx%d", s.m, s.k, s.n);
    const nn::Tensor x = nn::Tensor::RandomNormal(s.m, s.k, 1.0, rng);
    const nn::Tensor w = nn::Tensor::RandomNormal(s.k, s.n, 1.0, rng);
    const nn::Tensor g = nn::Tensor::RandomNormal(s.m, s.n, 1.0, rng);
    mismatches += TimeKernel(
        report, std::string("matmul") + tag, reps, s.m, s.n,
        [&](const Table& t, nn::Tensor& c) {
          t.matmul_rows(x.data(), w.data(), c.data(), 0, s.m, s.k, s.n,
                        false);
        });
    mismatches += TimeKernel(
        report, std::string("matmul_ta") + tag, reps, s.k, s.n,
        [&](const Table& t, nn::Tensor& c) {
          t.matmul_ta_rows(x.data(), g.data(), c.data(), 0, s.k, s.k, s.m,
                           s.n, false);
        });
    mismatches += TimeKernel(
        report, std::string("matmul_tb") + tag, reps, s.m, s.k,
        [&](const Table& t, nn::Tensor& c) {
          t.matmul_tb_rows(g.data(), w.data(), c.data(), 0, s.m, s.n, s.k,
                           false);
        });
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
