// The planned executor's central contract (DESIGN.md §13): compiling a
// tape segment into a Plan — fusion, pooled buffers, one exec::Session —
// must change nothing about the numbers. These tests train the full
// O2-SiteRec model and the two matrix-factorization baselines end to end
// in both modes and require *bitwise* equal predictions, at 1, 2 and 8
// worker threads (fusion groups and kernel grains depend only on shapes,
// never on the thread count). A finite-difference gradient check and a
// scalar-vs-AVX2 kernel-table comparison pin down the two layers the plan
// rests on: backward scheduling and the SIMD kernels.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/factory.h"
#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/parameter.h"
#include "nn/tape.h"
#include "sim/dataset.h"

namespace o2sr {
namespace {

using nn::Tape;

sim::SimConfig SmallWorld() {
  sim::SimConfig cfg;
  cfg.city_width_m = 2500.0;
  cfg.city_height_m = 2500.0;
  cfg.num_store_types = 5;
  cfg.num_stores = 60;
  cfg.num_couriers = 30;
  cfg.num_days = 2;
  cfg.peak_orders_per_region_slot = 3.0;
  cfg.seed = 515;
  return cfg;
}

struct Fixture {
  sim::Dataset data;
  core::InteractionList interactions;
  eval::Split split;
  core::InteractionList probe;  // first 8 held-out pairs

  Fixture() : data(sim::GenerateDataset(SmallWorld())) {
    interactions = eval::BuildInteractions(data);
    split = eval::SplitInteractions(data, interactions, {0.8, /*seed=*/4});
    for (size_t i = 0; i < split.test.size() && probe.size() < 8; ++i) {
      probe.push_back(split.test[i]);
    }
  }
};

const Fixture& F() {
  static const Fixture* f = new Fixture();
  return *f;
}

core::TrainContext Ctx() {
  core::TrainContext ctx;
  ctx.data = &F().data;
  ctx.visible_orders = &F().split.train_orders;
  ctx.train = &F().split.train;
  return ctx;
}

// RAII for the process-wide tape mode so a failing ASSERT cannot leak a
// forced mode into later tests.
struct ModeGuard {
  explicit ModeGuard(Tape::Mode mode) { Tape::SetModeForTest(mode); }
  ~ModeGuard() { Tape::SetModeForTest(Tape::Mode::kEnv); }
};

enum class Model { kO2SiteRec, kCityTransfer, kBlgCoSvd };

std::unique_ptr<core::SiteRecommender> Make(Model which) {
  switch (which) {
    case Model::kO2SiteRec: {
      core::O2SiteRecConfig cfg;
      cfg.capacity.embedding_dim = 8;
      cfg.rec.embedding_dim = 16;
      cfg.rec.node_heads = 2;
      cfg.rec.time_heads = 2;
      cfg.epochs = 3;
      cfg.learning_rate = 5e-3;
      cfg.seed = 9;
      return std::make_unique<core::O2SiteRecRecommender>(cfg);
    }
    case Model::kCityTransfer:
    case Model::kBlgCoSvd: {
      baselines::BaselineConfig cfg;
      cfg.embedding_dim = 12;
      cfg.epochs = 5;
      cfg.seed = 13;
      return baselines::MakeBaseline(which == Model::kCityTransfer
                                         ? baselines::BaselineKind::kCityTransfer
                                         : baselines::BaselineKind::kBlgCoSvd,
                                     cfg);
    }
  }
  return nullptr;
}

std::vector<double> TrainAndPredict(Model which, Tape::Mode mode,
                                    int threads) {
  ModeGuard guard(mode);
  exec::ThreadPool pool(threads, "exec.plan_test");
  exec::PoolScope scope(&pool);
  auto model = Make(which);
  EXPECT_TRUE(model->Train(Ctx()).ok());
  return model->Predict(F().probe).value();
}

// Eager single-threaded training is the reference everything else must
// reproduce bit for bit.
void CheckPlannedMatchesEager(Model which) {
  const std::vector<double> want =
      TrainAndPredict(which, Tape::Mode::kEager, 1);
  ASSERT_EQ(want.size(), F().probe.size());
  for (int threads : {1, 2, 8}) {
    const std::vector<double> got =
        TrainAndPredict(which, Tape::Mode::kPlanned, threads);
    ASSERT_EQ(got.size(), want.size()) << "threads " << threads;
    for (size_t i = 0; i < want.size(); ++i) {
      // EXPECT_EQ, not NEAR: the plan may fuse and reorder the schedule
      // but never an accumulation.
      EXPECT_EQ(got[i], want[i])
          << "threads " << threads << " probe pair " << i;
    }
  }
}

TEST(PlanExecTest, O2SiteRecPlannedBitIdenticalToEager) {
  CheckPlannedMatchesEager(Model::kO2SiteRec);
}

TEST(PlanExecTest, CityTransferPlannedBitIdenticalToEager) {
  CheckPlannedMatchesEager(Model::kCityTransfer);
}

TEST(PlanExecTest, BlgCoSvdPlannedBitIdenticalToEager) {
  CheckPlannedMatchesEager(Model::kBlgCoSvd);
}

// --- gradcheck under the planned executor --------------------------------
// The fused backward (linear_act groups, scatter groups, pooled grad
// slots) must still be the true gradient. The loss composition below hits
// every fusion pattern: MatMul + bias + activation (pattern A, all three
// activations), MulColBroadcast + SegmentSum (pattern B), plus softmax,
// gather and concat around them.

using LossBuilder = std::function<nn::Value(Tape&)>;

double EvalLoss(const LossBuilder& build) {
  Tape tape;
  nn::Value loss = build(tape);
  return tape.value(loss).at(0, 0);
}

void CheckGradients(nn::ParameterStore& store, const LossBuilder& build,
                    double eps = 1e-3, double tol = 2e-2) {
  store.ZeroGrads();
  {
    Tape tape;
    nn::Value loss = build(tape);
    tape.Backward(loss);
  }
  for (const auto& p : store.params()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + static_cast<float>(eps);
      const double up = EvalLoss(build);
      p->value.data()[i] = orig - static_cast<float>(eps);
      const double down = EvalLoss(build);
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = p->grad.data()[i];
      const double denom =
          std::max({1.0, std::fabs(numeric), std::fabs(analytic)});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "param " << p->name << " index " << i;
    }
  }
}

TEST(PlanExecTest, GradcheckUnderPlannedExecutor) {
  ModeGuard guard(Tape::Mode::kPlanned);
  nn::ParameterStore store;
  Rng rng(4242);
  nn::Parameter* w1 = store.CreateXavier("w1", 6, 8, rng);
  nn::Parameter* b1 = store.CreateNormal("b1", 1, 8, 0.05, rng);
  nn::Parameter* w2 = store.CreateXavier("w2", 8, 4, rng);
  nn::Parameter* b2 = store.CreateNormal("b2", 1, 4, 0.05, rng);
  nn::Parameter* w3 = store.CreateXavier("w3", 4, 3, rng);
  const nn::Tensor x = nn::Tensor::RandomNormal(10, 6, 0.8, rng);
  const nn::Tensor col = nn::Tensor::RandomNormal(10, 1, 0.5, rng);
  const std::vector<int> segment = {0, 0, 1, 1, 1, 2, 2, 3, 3, 3};

  const LossBuilder build = [&](Tape& tape) {
    nn::Value in = tape.Input(x);
    // Pattern A with all three fused shapes.
    nn::Value h1 = tape.Relu(
        tape.AddRowBroadcast(tape.MatMul(in, tape.Param(w1)), tape.Param(b1)));
    nn::Value h2 = tape.Tanh(
        tape.AddRowBroadcast(tape.MatMul(h1, tape.Param(w2)), tape.Param(b2)));
    nn::Value h3 = tape.Sigmoid(tape.MatMul(h2, tape.Param(w3)));
    // Pattern B: edgewise weighting then segment reduction.
    nn::Value weighted = tape.MulColBroadcast(h3, tape.Input(col));
    nn::Value pooled = tape.SegmentSum(weighted, segment, 4);
    return tape.MeanAll(tape.Mul(pooled, pooled));
  };
  CheckGradients(store, build);
}

// --- scalar vs AVX2 kernel tables ----------------------------------------
// The hand-written AVX2 matmul family re-tiles the loops; every element
// must still come out bit-identical to the scalar reference. The sweep
// covers every column-tile class (n = 1 .. 43), the four-chain k % 4 tails,
// row counts off the 8-row blocks, the executor's 12-row chunks (so most
// calls start at row_begin > 0), and accumulate on and off. Three operand
// sets: dense; ±0-rich A and B (the dense AVX2 bodies add the terms the
// reference skips, which must not show); and ±Inf/NaN in B beside zeros in
// A (0 * Inf is where skipping shows, so that call must take the scalar
// fallback). Skipped on builds/CPUs without the AVX2 table.

nn::Tensor SparseRandom(int rows, int cols, double zero_fraction, Rng& rng) {
  nn::Tensor t = nn::Tensor::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < t.size(); ++i) {
    if (rng.Uniform(0.0, 1.0) < zero_fraction) {
      t.data()[i] = rng.Uniform(0.0, 1.0) < 0.5 ? 0.0f : -0.0f;
    }
  }
  return t;
}

// Plants +Inf, -Inf and NaN in t.
void PoisonNonFinite(nn::Tensor& t) {
  const size_t n = t.size();
  t.data()[0] = std::numeric_limits<float>::infinity();
  t.data()[n / 2] = -std::numeric_limits<float>::infinity();
  t.data()[n - 1] = std::numeric_limits<float>::quiet_NaN();
}

// Same 32-bit pattern (so -0 != +0), except that any NaN equals any NaN:
// NaN payloads are not part of the kernel contract.
bool SameBits(float x, float y) {
  if (std::isnan(x) && std::isnan(y)) return true;
  return std::bit_cast<uint32_t>(x) == std::bit_cast<uint32_t>(y);
}

void ExpectSameBits(const nn::Tensor& a, const nn::Tensor& b,
                    const std::string& label) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameBits(a.data()[i], b.data()[i]))
        << label << " flat index " << i << ": " << a.data()[i] << " vs "
        << b.data()[i];
  }
}

TEST(PlanExecTest, Avx2MatMulKernelsMatchScalarBitwise) {
  const nn::kernels::KernelTable* avx2 = nn::kernels::Avx2Table();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "AVX2 table unavailable on this build/CPU";
  }
  const nn::kernels::KernelTable& scalar = nn::kernels::ScalarTable();
  Rng rng(77);
  using Table = nn::kernels::KernelTable;
  // Runs one kernel of both tables over the output rows in `chunk`-row
  // calls, from the same stale output (so accumulate=false must overwrite
  // every element), and compares the results. Each AVX2 call may write
  // only its own rows: the rows outside [rb, re), and eight guard rows past
  // the end of the output, must keep their bits.
  constexpr int kGuardRows = 8;
  constexpr float kGuard = 1234.5f;
  const auto compare = [&](const std::string& label, const nn::Tensor& seed,
                           int chunk, const auto& call) {
    const int rows = seed.rows(), cols = seed.cols();
    nn::Tensor c_s = seed;
    nn::Tensor c_v(rows + kGuardRows, cols);
    c_v.Fill(kGuard);
    std::copy(seed.data(), seed.data() + seed.size(), c_v.data());
    for (int rb = 0; rb < rows; rb += chunk) {
      const int re = std::min(rows, rb + chunk);
      call(scalar, c_s.data(), rb, re);
      const nn::Tensor before = c_v;
      call(*avx2, c_v.data(), rb, re);
      for (int r = 0; r < rows + kGuardRows; ++r) {
        if (r >= rb && r < re) continue;
        for (int c = 0; c < cols; ++c) {
          ASSERT_TRUE(SameBits(before.at(r, c), c_v.at(r, c)))
              << label << " rows [" << rb << ", " << re << ") wrote row "
              << r << " column " << c;
        }
      }
    }
    nn::Tensor result(rows, cols);
    std::copy(c_v.data(), c_v.data() + result.size(), result.data());
    ExpectSameBits(c_s, result, label);
  };
  for (int m : {5, 29}) {
    for (int k : {1, 3, 8, 32, 37}) {
      for (int n : {1, 2, 7, 8, 9, 16, 24, 33, 43}) {
        for (const char* operands : {"dense", "signed-zeros", "non-finite-B"}) {
          const std::string mode = operands;
          const double a_zeros = mode == "dense" ? 0.0 : 0.6;
          const double b_zeros = mode == "signed-zeros" ? 0.5 : 0.0;
          const nn::Tensor a = SparseRandom(m, k, a_zeros, rng);
          const nn::Tensor at = SparseRandom(k, m, a_zeros, rng);
          nn::Tensor b = SparseRandom(k, n, b_zeros, rng);
          nn::Tensor bt = SparseRandom(n, k, b_zeros, rng);
          if (mode == "non-finite-B") {
            PoisonNonFinite(b);
            PoisonNonFinite(bt);
          }
          const nn::Tensor seed = SparseRandom(m, n, 0.2, rng);
          for (bool accumulate : {false, true}) {
            for (int chunk : {m, 12}) {
              if (chunk > m) continue;  // one chunk: already covered
              const std::string label =
                  "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                  " n=" + std::to_string(n) + " " + mode +
                  (accumulate ? " accumulate" : "") +
                  " chunk=" + std::to_string(chunk) + " ";
              compare(label + "matmul_rows", seed, chunk,
                      [&](const Table& t, float* c, int rb, int re) {
                        t.matmul_rows(a.data(), b.data(), c, rb, re, k, n,
                                      accumulate);
                      });
              compare(label + "matmul_ta_rows", seed, chunk,
                      [&](const Table& t, float* c, int rb, int re) {
                        t.matmul_ta_rows(at.data(), b.data(), c, rb, re, m,
                                         k, n, accumulate);
                      });
              compare(label + "matmul_tb_rows", seed, chunk,
                      [&](const Table& t, float* c, int rb, int re) {
                        t.matmul_tb_rows(a.data(), bt.data(), c, rb, re, k,
                                         n, accumulate);
                      });
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace o2sr
