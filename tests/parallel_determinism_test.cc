// The exec layer's central guarantee: every parallel kernel is
// bit-identical to its single-threaded execution at any thread count.
// Each test runs the same computation under pools of 1, 2 and 8 threads
// (via PoolScope, the same mechanism TrainContext::pool uses) and compares
// the results with EXPECT_EQ / EXPECT_DOUBLE_EQ — no tolerances.

#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "features/order_stats.h"
#include "graphs/geo_graph.h"
#include "graphs/hetero_graph.h"
#include "graphs/mobility_graph.h"
#include "nn/tensor.h"
#include "sim/dataset.h"

namespace o2sr {
namespace {

// Runs `fn` under a private pool of each thread count and checks all
// results equal the single-threaded one with `eq(a, b)`.
template <typename Fn, typename Eq>
void ExpectSameAtAllThreadCounts(Fn&& fn, Eq&& eq) {
  exec::ThreadPool serial(1, "exec.det_test");
  exec::ThreadPool two(2, "exec.det_test");
  exec::ThreadPool eight(8, "exec.det_test");
  using Result = decltype(fn());
  std::optional<Result> want;
  {
    exec::PoolScope scope(&serial);
    want.emplace(fn());
  }
  for (exec::ThreadPool* pool : {&two, &eight}) {
    exec::PoolScope scope(pool);
    const Result got = fn();
    eq(*want, got);
  }
}

void ExpectTensorsBitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
  }
}

TEST(ParallelDeterminismTest, MatMulBitIdentical) {
  Rng rng(7);
  const nn::Tensor a = nn::Tensor::RandomNormal(67, 43, 1.0, rng);
  const nn::Tensor b = nn::Tensor::RandomNormal(43, 29, 1.0, rng);
  ExpectSameAtAllThreadCounts([&] { return nn::MatMul(a, b); },
                              ExpectTensorsBitIdentical);
  ExpectSameAtAllThreadCounts(
      [&] { return nn::MatMulTransposeB(a, nn::Tensor::Full(29, 43, 0.5f)); },
      ExpectTensorsBitIdentical);
  ExpectSameAtAllThreadCounts(
      [&] { return nn::MatMulTransposeA(a, nn::Tensor::Full(67, 29, 0.5f)); },
      ExpectTensorsBitIdentical);
}

TEST(ParallelDeterminismTest, ReductionsBitIdentical) {
  Rng rng(11);
  // Large enough to span multiple element-grain chunks.
  const nn::Tensor t = nn::Tensor::RandomNormal(300, 257, 1.0, rng);
  ExpectSameAtAllThreadCounts([&] { return t.Sum(); },
                              [](double a, double b) { EXPECT_EQ(a, b); });
  ExpectSameAtAllThreadCounts([&] { return t.MeanAbs(); },
                              [](double a, double b) { EXPECT_EQ(a, b); });
}

TEST(ParallelDeterminismTest, ElementwiseBitIdentical) {
  Rng rng(13);
  const nn::Tensor base = nn::Tensor::RandomNormal(211, 173, 1.0, rng);
  const nn::Tensor other = nn::Tensor::RandomNormal(211, 173, 1.0, rng);
  ExpectSameAtAllThreadCounts(
      [&] {
        nn::Tensor t = base;
        t.AddInPlace(other);
        t.ScaleInPlace(0.37f);
        return t;
      },
      ExpectTensorsBitIdentical);
}

sim::SimConfig SmallCity() {
  sim::SimConfig cfg;
  cfg.city_width_m = 3500.0;
  cfg.city_height_m = 3500.0;
  cfg.num_store_types = 8;
  cfg.num_stores = 140;
  cfg.num_couriers = 60;
  cfg.num_days = 3;
  cfg.peak_orders_per_region_slot = 4.0;
  cfg.seed = 51;
  return cfg;
}

const sim::Dataset& Data() {
  static const sim::Dataset* data =
      new sim::Dataset(sim::GenerateDataset(SmallCity()));
  return *data;
}

// GenerateDataset draws the regions of each day as one ParallelFor and
// appends their buffers in region order: every field of every order, and
// the per-slot and per-period tables derived from them, match the 1-lane
// dataset bit for bit. Both presets, since the open-data one draws extra
// customer jitter per order.
TEST(ParallelDeterminismTest, GenerateDatasetBitIdentical) {
  for (const sim::SimulationPreset preset :
       {sim::SimulationPreset::kSyntheticEleme,
        sim::SimulationPreset::kOpenData}) {
    sim::SimConfig config = SmallCity();
    config.preset = preset;
    ExpectSameAtAllThreadCounts(
        [&] { return sim::GenerateDataset(config); },
        [](const sim::Dataset& a, const sim::Dataset& b) {
          ASSERT_GT(a.orders.size(), 0u);
          ASSERT_EQ(a.orders.size(), b.orders.size());
          for (size_t i = 0; i < a.orders.size(); ++i) {
            const sim::Order& x = a.orders[i];
            const sim::Order& y = b.orders[i];
            ASSERT_EQ(x.order_id, y.order_id) << "order " << i;
            ASSERT_EQ(x.store_id, y.store_id) << "order " << i;
            ASSERT_EQ(x.courier_id, y.courier_id) << "order " << i;
            ASSERT_EQ(x.type, y.type) << "order " << i;
            ASSERT_EQ(x.store_region, y.store_region) << "order " << i;
            ASSERT_EQ(x.customer_region, y.customer_region) << "order " << i;
            ASSERT_EQ(x.store_location.x, y.store_location.x) << "order " << i;
            ASSERT_EQ(x.store_location.y, y.store_location.y) << "order " << i;
            ASSERT_EQ(x.customer_location.x, y.customer_location.x)
                << "order " << i;
            ASSERT_EQ(x.customer_location.y, y.customer_location.y)
                << "order " << i;
            ASSERT_EQ(x.creation_min, y.creation_min) << "order " << i;
            ASSERT_EQ(x.acceptance_min, y.acceptance_min) << "order " << i;
            ASSERT_EQ(x.pickup_min, y.pickup_min) << "order " << i;
            ASSERT_EQ(x.delivery_min, y.delivery_min) << "order " << i;
            ASSERT_EQ(x.distance_m, y.distance_m) << "order " << i;
            ASSERT_EQ(x.day, y.day) << "order " << i;
            ASSERT_EQ(x.slot, y.slot) << "order " << i;
          }
          ASSERT_EQ(a.slot_stats.size(), b.slot_stats.size());
          for (size_t i = 0; i < a.slot_stats.size(); ++i) {
            const sim::SlotStats& x = a.slot_stats[i];
            const sim::SlotStats& y = b.slot_stats[i];
            EXPECT_EQ(x.day, y.day) << "slot stats " << i;
            EXPECT_EQ(x.slot, y.slot) << "slot stats " << i;
            EXPECT_EQ(x.active_couriers, y.active_couriers)
                << "slot stats " << i;
            EXPECT_EQ(x.orders, y.orders) << "slot stats " << i;
            EXPECT_EQ(x.mean_delivery_minutes, y.mean_delivery_minutes)
                << "slot stats " << i;
          }
          EXPECT_EQ(a.scope_factor_per_period, b.scope_factor_per_period);
        });
  }
}

TEST(ParallelDeterminismTest, GeoGraphBitIdentical) {
  ExpectSameAtAllThreadCounts(
      [&] { return graphs::GeoGraph(Data().city.grid); },
      [](const graphs::GeoGraph& a, const graphs::GeoGraph& b) {
        ASSERT_EQ(a.num_regions(), b.num_regions());
        ASSERT_EQ(a.NumEdges(), b.NumEdges());
        for (int r = 0; r < a.num_regions(); ++r) {
          ASSERT_EQ(a.Neighbors(r), b.Neighbors(r)) << "region " << r;
          ASSERT_EQ(a.Distances(r), b.Distances(r)) << "region " << r;
        }
      });
}

TEST(ParallelDeterminismTest, MobilityGraphBitIdentical) {
  const features::OrderStats stats(Data());
  ExpectSameAtAllThreadCounts(
      [&] { return graphs::MobilityMultiGraph(stats); },
      [](const graphs::MobilityMultiGraph& a,
         const graphs::MobilityMultiGraph& b) {
        ASSERT_EQ(a.TotalEdges(), b.TotalEdges());
        ASSERT_EQ(a.max_delivery_minutes(), b.max_delivery_minutes());
        for (int p = 0; p < sim::kNumPeriods; ++p) {
          const auto& ea = a.EdgesInPeriod(p);
          const auto& eb = b.EdgesInPeriod(p);
          ASSERT_EQ(ea.size(), eb.size()) << "period " << p;
          for (size_t i = 0; i < ea.size(); ++i) {
            ASSERT_EQ(ea[i].src, eb[i].src);
            ASSERT_EQ(ea[i].dst, eb[i].dst);
            ASSERT_EQ(ea[i].delivery_minutes, eb[i].delivery_minutes);
            ASSERT_EQ(ea[i].transactions, eb[i].transactions);
          }
        }
      });
}

TEST(ParallelDeterminismTest, HeteroGraphBitIdentical) {
  const features::OrderStats stats(Data());
  ExpectSameAtAllThreadCounts(
      [&] { return graphs::HeteroMultiGraph(Data(), stats); },
      [](const graphs::HeteroMultiGraph& a,
         const graphs::HeteroMultiGraph& b) {
        ASSERT_EQ(a.store_regions(), b.store_regions());
        ASSERT_EQ(a.customer_regions(), b.customer_regions());
        ExpectTensorsBitIdentical(a.store_features(), b.store_features());
        ExpectTensorsBitIdentical(a.customer_features(),
                                  b.customer_features());
        for (int p = 0; p < sim::kNumPeriods; ++p) {
          const auto& sa = a.Subgraph(p);
          const auto& sb = b.Subgraph(p);
          ASSERT_EQ(sa.su_edges.size(), sb.su_edges.size()) << "period " << p;
          for (size_t i = 0; i < sa.su_edges.size(); ++i) {
            ASSERT_EQ(sa.su_edges[i].s, sb.su_edges[i].s);
            ASSERT_EQ(sa.su_edges[i].u, sb.su_edges[i].u);
            ASSERT_EQ(sa.su_edges[i].distance_norm,
                      sb.su_edges[i].distance_norm);
            ASSERT_EQ(sa.su_edges[i].transactions_norm,
                      sb.su_edges[i].transactions_norm);
          }
          ASSERT_EQ(sa.ua_edges.size(), sb.ua_edges.size()) << "period " << p;
          for (size_t i = 0; i < sa.ua_edges.size(); ++i) {
            ASSERT_EQ(sa.ua_edges[i].u, sb.ua_edges[i].u);
            ASSERT_EQ(sa.ua_edges[i].a, sb.ua_edges[i].a);
            ASSERT_EQ(sa.ua_edges[i].transactions_norm,
                      sb.ua_edges[i].transactions_norm);
          }
        }
      });
}

TEST(ParallelDeterminismTest, EvaluateBitIdentical) {
  const eval::Split split = eval::SplitInteractions(
      Data(), eval::BuildInteractions(Data()), {0.8, /*seed=*/3});
  // Synthetic but deterministic predictions; Evaluate's per-type scoring is
  // what runs in parallel.
  std::vector<double> preds(split.test.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    preds[i] = 0.5 + 0.4 * std::sin(static_cast<double>(i));
  }
  eval::EvalOptions opts;
  opts.min_candidates = 5;
  ExpectSameAtAllThreadCounts(
      [&] { return eval::Evaluate(split.test, preds, opts); },
      [](const eval::EvalResult& a, const eval::EvalResult& b) {
        ASSERT_EQ(a.types_evaluated, b.types_evaluated);
        ASSERT_EQ(a.ndcg.size(), b.ndcg.size());
        for (const auto& [k, v] : a.ndcg) EXPECT_EQ(v, b.ndcg.at(k)) << k;
        for (const auto& [k, v] : a.precision) {
          EXPECT_EQ(v, b.precision.at(k)) << k;
        }
        EXPECT_EQ(a.rmse, b.rmse);
      });
}

}  // namespace
}  // namespace o2sr
