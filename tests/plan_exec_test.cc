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
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/factory.h"
#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "nn/buffer_pool.h"
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

// --- gradient first-write rule ------------------------------------------
// The planned executor hands a gradient slot's first writer a stale pooled
// buffer and accumulate=false (DESIGN.md §13). The kernel must store
// 0.0f + v: not v (0.0f + -0 is +0), and nothing read from the slot. So
// for every gradient kernel, in both tables and among the shared kernels,
// accumulate=false on a NaN-poisoned destination must give the bits that
// accumulate=true gives on a zeroed one. The operands hold ±0, so a body
// that stores v leaves a -0 where the reference has +0; one operand set
// adds ±Inf and NaN. Calls cover the whole range and chunks of it. Kernels
// with two destinations are checked with distinct slots and with one
// aliased slot, written first and then added to (the Mul(x, x) pattern).

using FirstWriteCall =
    std::function<void(float* dst, bool accumulate, int64_t begin,
                       int64_t end)>;

// Runs `call` over [0, units) in whole-range and `chunk`-unit calls and
// compares accumulate=false on NaN against accumulate=true on zeros.
// Returns the zero-then-add result.
std::vector<float> ExpectFirstWriteRule(const std::string& label,
                                        size_t dst_size, int64_t units,
                                        int64_t chunk,
                                        const FirstWriteCall& call) {
  std::vector<float> want;
  for (const int64_t step : {units, chunk}) {
    std::vector<float> zeroed(dst_size, 0.0f);
    std::vector<float> poisoned(dst_size,
                                std::numeric_limits<float>::quiet_NaN());
    for (int64_t b = 0; b < units; b += step) {
      const int64_t e = std::min(units, b + step);
      call(zeroed.data(), /*accumulate=*/true, b, e);
      call(poisoned.data(), /*accumulate=*/false, b, e);
    }
    const std::string where = label + " step=" + std::to_string(step);
    for (size_t i = 0; i < dst_size; ++i) {
      EXPECT_TRUE(SameBits(zeroed[i], poisoned[i]))
          << where << " index " << i << ": zero-then-add " << zeroed[i]
          << " vs first write " << poisoned[i];
    }
    want = std::move(zeroed);
  }
  return want;
}

TEST(PlanExecTest, GradKernelsFirstWriteMatchesZeroThenAdd) {
  using Table = nn::kernels::KernelTable;
  std::vector<std::pair<std::string, const Table*>> tables = {
      {"scalar", &nn::kernels::ScalarTable()}};
  if (nn::kernels::Avx2Table() != nullptr) {
    tables.emplace_back("avx2", nn::kernels::Avx2Table());
  }
  constexpr int kRows = 29, kCols = 13, kSegments = 6;
  constexpr int64_t kFlat = int64_t{kRows} * kCols;
  constexpr int64_t kFlatChunk = 40, kRowChunk = 7;
  const size_t flat = static_cast<size_t>(kFlat);
  for (const char* operands : {"signed-zeros", "non-finite"}) {
    Rng rng(91);
    const auto make = [&](int rows, int cols) {
      nn::Tensor t = SparseRandom(rows, cols, 0.3, rng);
      if (std::string(operands) == "non-finite") PoisonNonFinite(t);
      return t;
    };
    const nn::Tensor a = make(kRows, kCols), b = make(kRows, kCols);
    const nn::Tensor g = make(kRows, kCols), col = make(kRows, 1);
    const nn::Tensor at = make(kCols, kRows), bt = make(9, kCols);
    const nn::Tensor w = make(kCols, 9), gseg = make(kSegments, kCols);
    const nn::Tensor y1 = make(kRows, 1), g1 = make(kRows, 1);
    const nn::Tensor gcat = make(kRows, 12);
    std::vector<int> segment(kRows), counts(kSegments, 0);
    for (int r = 0; r < kRows; ++r) {
      segment[r] = (r * 5) % kSegments;
      ++counts[segment[r]];
    }
    const std::string mode = std::string(" ") + operands;

    // Table kernels: every table's result must also match the scalar one.
    std::map<std::string, std::vector<float>> scalar_results;
    for (const auto& [table_name, table] : tables) {
      const Table& K = *table;
      const auto check = [&](const std::string& kernel, size_t dst_size,
                             int64_t units, int64_t chunk,
                             const FirstWriteCall& call) {
        const std::vector<float> got = ExpectFirstWriteRule(
            table_name + " " + kernel + mode, dst_size, units, chunk, call);
        auto [it, first] = scalar_results.emplace(kernel, got);
        if (first) return;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(SameBits(it->second[i], got[i]))
              << table_name << " " << kernel << mode << " index " << i
              << " differs from the scalar table";
        }
      };
      const size_t mat = static_cast<size_t>(kRows) * 9;
      check("matmul_rows", mat, kRows, kRowChunk,
            [&](float* c, bool acc, int64_t rb, int64_t re) {
              K.matmul_rows(a.data(), w.data(), c, rb, re, kCols, 9, acc);
            });
      check("matmul_ta_rows", mat, kRows, kRowChunk,
            [&](float* c, bool acc, int64_t rb, int64_t re) {
              K.matmul_ta_rows(at.data(), w.data(), c, rb, re, kRows, kCols,
                               9, acc);
            });
      check("matmul_tb_rows", mat, kRows, kRowChunk,
            [&](float* c, bool acc, int64_t rb, int64_t re) {
              K.matmul_tb_rows(a.data(), bt.data(), c, rb, re, kCols, 9,
                               acc);
            });
      check("acc_add", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_add(d, a.data(), bi, ei, acc);
            });
      check("acc_sub", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_sub(d, a.data(), bi, ei, acc);
            });
      check("acc_scale", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_scale(d, a.data(), -0.75f, bi, ei, acc);
            });
      check("acc_mul", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_mul(d, g.data(), a.data(), bi, ei, acc);
            });
      for (const float c : {-0.0f, 2.5f}) {
        check("acc_const " + std::to_string(c), flat, kFlat, kFlatChunk,
              [&](float* d, bool acc, int64_t bi, int64_t ei) {
                K.acc_const(d, c, bi, ei, acc);
              });
      }
      check("acc_relu_bwd", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_relu_bwd(a.data(), g.data(), d, bi, ei, acc);
            });
      check("acc_leaky_bwd", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_leaky_bwd(a.data(), 0.2f, g.data(), d, bi, ei, acc);
            });
      check("acc_sigmoid_bwd", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_sigmoid_bwd(a.data(), g.data(), d, bi, ei, acc);
            });
      check("acc_tanh_bwd", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              K.acc_tanh_bwd(a.data(), g.data(), d, bi, ei, acc);
            });
      check("acc_mul_col_bwd_x", flat, kRows, kRowChunk,
            [&](float* d, bool acc, int64_t rb, int64_t re) {
              K.acc_mul_col_bwd_x(g.data(), col.data(), d, rb, re, kCols,
                                  acc);
            });
      check("acc_rowwise_dot_bwd", 2 * flat, kRows, kRowChunk,
            [&](float* d, bool acc, int64_t rb, int64_t re) {
              K.acc_rowwise_dot_bwd(g1.data(), a.data(), b.data(), d,
                                    d + kFlat, rb, re, kCols, acc, acc);
            });
      check("acc_rowwise_dot_bwd aliased", flat, kRows, kRowChunk,
            [&](float* d, bool acc, int64_t rb, int64_t re) {
              K.acc_rowwise_dot_bwd(g1.data(), a.data(), b.data(), d, d, rb,
                                    re, kCols, acc, /*accumulate_b=*/true);
            });
    }

    // Shared kernels (one implementation for every SIMD level).
    namespace k = nn::kernels;
    const auto check = [&](const std::string& kernel, size_t dst_size,
                           int64_t units, int64_t chunk,
                           const FirstWriteCall& call) {
      ExpectFirstWriteRule("shared " + kernel + mode, dst_size, units, chunk,
                           call);
    };
    check("SoftmaxRowsBackward", flat, kRows, kRowChunk,
          [&](float* d, bool acc, int64_t rb, int64_t re) {
            k::SoftmaxRowsBackward(a.data(), g.data(), d, rb, re, kCols, acc);
          });
    check("ColSumAcc", kCols, 1, 1,
          [&](float* d, bool acc, int64_t, int64_t) {
            k::ColSumAcc(g.data(), d, kRows, kCols, acc);
          });
    check("MulColBwdColAcc", kRows, kRows, kRowChunk,
          [&](float* d, bool acc, int64_t rb, int64_t re) {
            k::MulColBwdColAcc(g.data(), a.data(), d, rb, re, kCols, acc);
          });
    check("SegmentSumBackward", flat, kRows, kRowChunk,
          [&](float* d, bool acc, int64_t eb, int64_t ee) {
            k::SegmentSumBackward(gseg.data(), segment.data() + eb, ee - eb,
                                  d + eb * kCols, kCols, acc);
          });
    check("SegmentMeanBackward", flat, kRows, kRowChunk,
          [&](float* d, bool acc, int64_t eb, int64_t ee) {
            k::SegmentMeanBackward(gseg.data(), segment.data() + eb,
                                   counts.data(), ee - eb, d + eb * kCols,
                                   kCols, acc);
          });
    check("SegmentSoftmaxBackward", kRows, 1, 1,
          [&](float* d, bool acc, int64_t, int64_t) {
            k::SegmentSoftmaxBackward(y1.data(), g1.data(), segment.data(),
                                      kRows, kSegments, d, acc);
          });
    // Concat backward: a [rows x 13] gradient split 5 + 8, and the same
    // input listed twice (ConcatCols({x, x})), first write then add.
    check("ConcatColsBackward", flat, kRows, kRowChunk,
          [&](float* d, bool acc, int64_t rb, int64_t re) {
            const k::ConcatGrad in[] = {{d, 5, acc},
                                        {d + int64_t{kRows} * 5, 8, acc}};
            k::ConcatColsBackward(g.data(), in, 2, rb, re);
          });
    check("ConcatColsBackward aliased", static_cast<size_t>(kRows) * 6,
          kRows, kRowChunk, [&](float* d, bool acc, int64_t rb, int64_t re) {
            const k::ConcatGrad in[] = {{d, 6, acc}, {d, 6, true}};
            k::ConcatColsBackward(gcat.data(), in, 2, rb, re);
          });
    for (const bool mse : {true, false}) {
      const auto loss_bwd = mse ? k::MseBackward : k::MaeBackward;
      const std::string name = mse ? "MseBackward" : "MaeBackward";
      check(name, 2 * flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              loss_bwd(a.data() + bi, b.data() + bi, -0.5f, d + bi,
                       d + kFlat + bi, ei - bi, acc, acc);
            });
      check(name + " aliased", flat, kFlat, kFlatChunk,
            [&](float* d, bool acc, int64_t bi, int64_t ei) {
              loss_bwd(a.data() + bi, b.data() + bi, -0.5f, d + bi, d + bi,
                       ei - bi, acc, /*accumulate_t=*/true);
            });
    }
  }
}

// --- first-write gradient slots, planned vs eager ------------------------
// Eager tapes zero every gradient slot at record time and add every
// contribution; the planned executor lets a slot's first full writer store
// into a stale pooled buffer, zero-fills only for partial writers and
// reads. One tape covers the cases where the two could part: slots first
// written by an op that lists them twice (Mul(h, h), AddN({m, m, z}),
// ConcatCols({s, s}), RowwiseDot(r, r), MatMul(w, w)), a fused linear
// group, GatherRows and SliceCols slots whose partial writer runs before
// and after a full writer, and an input no op writes, whose gradient must
// read +0. Shapes span several chunks at op_exec's grains. The pool is
// stocked with NaN buffers of every shape first, so any read of a stale
// slot shows.

std::vector<nn::Tensor> FirstWriteTapeGrads(Tape::Mode mode, int threads) {
  ModeGuard guard(mode);
  exec::ThreadPool pool(threads, "exec.plan_test");
  exec::PoolScope scope(&pool);
  constexpr int kRows = 5000, kCols = 16, kTable = 300;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [rows, cols] :
       std::vector<std::pair<int, int>>{{kRows, kCols}, {kRows, 2 * kCols},
                                        {kRows, 1}, {kRows, 4}, {kRows, 5},
                                        {kCols, kCols}, {1, kCols},
                                        {kTable, kCols}, {1, 1}}) {
    for (int i = 0; i < 12; ++i) {
      nn::TensorPool::Global().Release(nn::Tensor::Full(rows, cols, nan));
    }
  }
  Rng rng(2718);
  nn::ParameterStore store;
  nn::Parameter* px = store.CreateNormal("x", kRows, kCols, 0.5, rng);
  nn::Parameter* pz = store.CreateNormal("z", kRows, kCols, 0.5, rng);
  nn::Parameter* pw = store.CreateNormal("w", kCols, kCols, 0.3, rng);
  nn::Parameter* pw2 = store.CreateNormal("w2", kCols, kCols, 0.3, rng);
  nn::Parameter* pb = store.CreateNormal("b", 1, kCols, 0.1, rng);
  nn::Parameter* pe = store.CreateNormal("e", kTable, kCols, 0.5, rng);
  nn::Parameter* pf = store.CreateNormal("f", kTable, kCols, 0.5, rng);
  const nn::Tensor target = nn::Tensor::RandomNormal(kRows, 1, 1.0, rng);
  std::vector<int> index(kRows);  // duplicates; the last 10 rows unused
  for (int i = 0; i < kRows; ++i) index[i] = (i * 7) % (kTable - 10);
  store.ZeroGrads();

  std::vector<nn::Tensor> out;
  {
    Tape tape;
    const nn::Value unused = tape.Input(nn::Tensor::Full(kRows, kCols, 1.0f));
    const nn::Value x = tape.Param(px), z = tape.Param(pz);
    const nn::Value w = tape.Param(pw), w2 = tape.Param(pw2);
    const nn::Value e = tape.Param(pe), f = tape.Param(pf);
    // Each op that lists an input twice is that input's only writer, so
    // its first claim is the slot's first write.
    const nn::Value ww = tape.MatMul(w, w);
    const nn::Value h = tape.MatMul(x, ww);
    const nn::Value m = tape.Mul(h, h);
    const nn::Value s = tape.AddN({m, m, z});
    const nn::Value cc = tape.ConcatCols({s, s});
    const nn::Value dot = tape.RowwiseDot(cc, cc);
    // Higher id than dot: the slice's backward runs first (partial, then
    // full).
    const nn::Value slice_cc = tape.SliceCols(cc, 3, 5);
    // A fused linear group; its matmul writes z first, then AddN adds.
    const nn::Value lin = tape.Tanh(
        tape.AddRowBroadcast(tape.MatMul(z, w2), tape.Param(pb)));
    // Lower id than the relu: the relu's backward runs first (full, then
    // partial).
    const nn::Value slice_lin = tape.SliceCols(lin, 2, 4);
    const nn::Value relu_lin = tape.Relu(lin);
    const nn::Value scaled_e = tape.Scale(e, 0.5f);
    const nn::Value gather_e = tape.GatherRows(e, index);  // partial first
    const nn::Value gather_f = tape.GatherRows(f, index);
    const nn::Value scaled_f = tape.Scale(f, -0.25f);      // full first
    const nn::Value loss = tape.AddN(
        {tape.MseLoss(dot, tape.Input(target)),
         tape.MeanAll(tape.Mul(slice_cc, slice_cc)),
         tape.MeanAll(slice_lin),
         tape.MeanAll(tape.RowwiseDot(relu_lin, relu_lin)),
         tape.MeanAll(tape.Mul(scaled_e, scaled_e)),
         tape.MeanAll(tape.Mul(gather_e, gather_f)),
         tape.MeanAll(tape.Mul(scaled_f, scaled_f))});
    tape.Backward(loss);
    for (const nn::Value v : {unused, ww, h, m, s, cc, lin, relu_lin, e, f}) {
      out.push_back(tape.grad(v));
    }
  }
  for (const auto& p : store.params()) out.push_back(p->grad);
  return out;
}

TEST(PlanExecTest, FirstWriteSlotsPlannedBitIdenticalToEager) {
  const std::vector<nn::Tensor> want =
      FirstWriteTapeGrads(Tape::Mode::kEager, 1);
  for (size_t i = 0; i < want[0].size(); ++i) {  // the unwritten input
    ASSERT_EQ(std::bit_cast<uint32_t>(want[0].data()[i]), 0u) << i;
  }
  for (int threads : {1, 2, 8}) {
    const std::vector<nn::Tensor> got =
        FirstWriteTapeGrads(Tape::Mode::kPlanned, threads);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < want.size(); ++t) {
      ExpectSameBits(want[t], got[t], "threads " + std::to_string(threads) +
                                          " gradient " + std::to_string(t));
    }
  }
}

}  // namespace
}  // namespace o2sr
