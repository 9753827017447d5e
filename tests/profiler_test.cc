// Tests of the performance-attribution profiler (obs/profiler.h): op and
// region aggregation, the determinism contract on count fields, the JSON
// report shape, the live hooks in exec::ThreadPool and the tensor kernels,
// and the one clock that regions and trace spans share.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "nn/tensor.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace o2sr::obs {
namespace {

// ---------------------------------------------------------------------------
// Aggregation on a local instance

TEST(ProfilerTest, OpAggregation) {
  Profiler p;
  p.Enable(true);
  p.RecordOp("matmul", 300, 50);
  p.RecordOp("matmul", 300, 50);
  p.RecordOp("add", 24, 6);

  const auto ops = p.OpSnapshot();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops.at("matmul").dispatches, 2u);
  EXPECT_EQ(ops.at("matmul").bytes_moved, 600u);
  EXPECT_EQ(ops.at("matmul").items, 100u);
  EXPECT_EQ(ops.at("add").dispatches, 1u);
  EXPECT_EQ(ops.at("add").bytes_moved, 24u);
}

TEST(ProfilerTest, RegionAggregationAndEfficiency) {
  Profiler p;
  p.Enable(true);
  // Two dispatched executions with 2 lanes each: wall 100us, lanes busy
  // 100+60 then 100+20 -> busy 280 over wall 2*2*100 = 400.
  const int64_t lanes_a[] = {100, 60};
  const int64_t lanes_b[] = {100, 20};
  p.RecordDispatchedRegion("region", /*items=*/64, /*chunks=*/8,
                           /*wall_us=*/100, lanes_a, 2);
  p.RecordDispatchedRegion("region", /*items=*/32, /*chunks=*/4,
                           /*wall_us=*/100, lanes_b, 2);
  p.RecordInlineRegion("region", /*items=*/5, /*chunks=*/1);

  const auto regions = p.RegionSnapshot();
  ASSERT_EQ(regions.size(), 1u);
  const RegionProfile& r = regions.at("region");
  EXPECT_EQ(r.regions, 3u);
  EXPECT_EQ(r.dispatched, 2u);
  EXPECT_EQ(r.inline_runs, 1u);
  EXPECT_EQ(r.chunks, 13u);
  EXPECT_EQ(r.items, 101u);
  EXPECT_EQ(r.min_items, 5u);
  EXPECT_EQ(r.max_items, 64u);
  EXPECT_EQ(r.wall_us, 200);
  EXPECT_EQ(r.busy_us, 280);
  ASSERT_EQ(r.lane_busy_us.size(), 2u);
  EXPECT_EQ(r.lane_busy_us[0], 200);
  EXPECT_EQ(r.lane_busy_us[1], 80);
  EXPECT_EQ(r.IdleUs(), 120);
  EXPECT_DOUBLE_EQ(r.Efficiency(), 280.0 / 400.0);
}

TEST(ProfilerTest, UnnamedRegionsBucketUnderKernel) {
  Profiler p;
  p.Enable(true);
  const int64_t lanes[] = {10, 10};
  p.RecordDispatchedRegion(nullptr, 16, 2, 10, lanes, 2);
  p.RecordInlineRegion(nullptr, 4, 1);
  const auto regions = p.RegionSnapshot();
  ASSERT_EQ(regions.count("(kernel)"), 1u);
  EXPECT_EQ(regions.at("(kernel)").regions, 2u);
}

TEST(ProfilerTest, DisabledRecordsNothing) {
  Profiler p;
  p.RecordOp("op", 1, 1);
  const int64_t lanes[] = {1};
  p.RecordDispatchedRegion("r", 1, 1, 1, lanes, 1);
  p.RecordInlineRegion("r", 1, 1);
  EXPECT_TRUE(p.OpSnapshot().empty());
  EXPECT_TRUE(p.RegionSnapshot().empty());
}

// ---------------------------------------------------------------------------
// Report shape

TEST(ProfilerTest, ReportJsonIsParseableAndCarriesCounts) {
  Profiler p;
  p.Enable(true);
  const int64_t lanes[] = {90, 50};
  p.RecordDispatchedRegion("exec.rows", 1000, 16, 100, lanes, 2);
  p.RecordOp("tensor.matmul", 1200, 2000);

  const std::string json = p.ReportJson();
  // Byte-deterministic for the same recorded data.
  EXPECT_EQ(json, p.ReportJson());

  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* region = parsed->Find("regions")->Find("exec.rows");
  ASSERT_NE(region, nullptr);
  EXPECT_DOUBLE_EQ(region->NumberOr("regions", 0), 1.0);
  EXPECT_DOUBLE_EQ(region->NumberOr("dispatched", 0), 1.0);
  EXPECT_DOUBLE_EQ(region->NumberOr("chunks", 0), 16.0);
  EXPECT_DOUBLE_EQ(region->NumberOr("items", 0), 1000.0);
  EXPECT_DOUBLE_EQ(region->NumberOr("wall_ms", -1), 0.1);
  EXPECT_DOUBLE_EQ(region->NumberOr("busy_ms", -1), 0.14);
  EXPECT_DOUBLE_EQ(region->NumberOr("idle_ms", -1), 0.06);
  ASSERT_NE(region->Find("lanes"), nullptr);
  EXPECT_EQ(region->Find("lanes")->items().size(), 2u);

  const JsonValue* op = parsed->Find("ops")->Find("tensor.matmul");
  ASSERT_NE(op, nullptr);
  EXPECT_DOUBLE_EQ(op->NumberOr("dispatches", 0), 1.0);
  EXPECT_DOUBLE_EQ(op->NumberOr("bytes_moved", 0), 1200.0);
  EXPECT_DOUBLE_EQ(op->NumberOr("items", 0), 2000.0);
  EXPECT_EQ(op->Find("bytes_allocated"), nullptr);
}

// ---------------------------------------------------------------------------
// Live hooks: ThreadPool and tensor kernels feed Profiler::Global()

class GlobalProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Global().ResetForTest();
    Profiler::Global().Enable(true);
  }
  void TearDown() override {
    Profiler::Global().Enable(false);
    Profiler::Global().ResetForTest();
  }
};

TEST_F(GlobalProfilerTest, ThreadPoolRegionsAreAttributed) {
  exec::ThreadPool pool(4);
  std::vector<int64_t> out(100, 0);
  pool.ParallelFor(
      100, /*grain=*/10, [&](int64_t i) { out[i] = i; },
      "exec.profiler_test");

  const auto regions = Profiler::Global().RegionSnapshot();
  ASSERT_EQ(regions.count("exec.profiler_test"), 1u);
  const RegionProfile& r = regions.at("exec.profiler_test");
  EXPECT_EQ(r.regions, 1u);
  EXPECT_EQ(r.dispatched, 1u);
  EXPECT_EQ(r.inline_runs, 0u);
  EXPECT_EQ(r.chunks, 10u);
  EXPECT_EQ(r.items, 100u);
  EXPECT_EQ(r.lane_busy_us.size(), 4u);
  EXPECT_GE(r.wall_us, 0);
}

TEST_F(GlobalProfilerTest, SerialPoolRunsInline) {
  exec::ThreadPool pool(1);
  pool.ParallelFor(50, /*grain=*/10, [](int64_t) {}, "exec.serial");
  const auto regions = Profiler::Global().RegionSnapshot();
  const RegionProfile& r = regions.at("exec.serial");
  EXPECT_EQ(r.inline_runs, 1u);
  EXPECT_EQ(r.dispatched, 0u);
  EXPECT_EQ(r.chunks, 5u);
  EXPECT_EQ(r.items, 50u);
}

TEST_F(GlobalProfilerTest, CountFieldsAreThreadCountInvariant) {
  // The determinism contract ci.sh leans on: the same workload produces
  // identical count fields at any thread count (times differ, counts not).
  auto run = [](int threads) {
    Profiler::Global().ResetForTest();
    exec::ThreadPool pool(threads);
    for (int rep = 0; rep < 3; ++rep) {
      pool.ParallelFor(256, /*grain=*/16, [](int64_t) {}, "exec.invariant");
    }
    const RegionProfile r =
        Profiler::Global().RegionSnapshot().at("exec.invariant");
    return std::tuple<uint64_t, uint64_t, uint64_t>(r.regions, r.chunks,
                                                    r.items);
  };
  EXPECT_EQ(run(1), run(2));
  EXPECT_EQ(run(2), run(4));
}

TEST_F(GlobalProfilerTest, TensorKernelsRecordOps) {
  Rng rng(1);
  nn::Tensor a = nn::Tensor::RandomNormal(8, 6, 1.0, rng);
  const nn::Tensor b = nn::Tensor::RandomNormal(8, 6, 1.0, rng);
  a.AddInPlace(b);

  const auto ops = Profiler::Global().OpSnapshot();
  ASSERT_EQ(ops.count("tensor.add_inplace"), 1u);
  const OpProfile& op = ops.at("tensor.add_inplace");
  EXPECT_EQ(op.dispatches, 1u);
  // Reads both operands and writes the result.
  EXPECT_EQ(op.bytes_moved, 3u * 8u * 6u * sizeof(float));
  EXPECT_EQ(op.items, 8u * 6u);
}

TEST_F(GlobalProfilerTest, DisabledProfilerSeesNothingFromHooks) {
  Profiler::Global().Enable(false);
  exec::ThreadPool pool(2);
  pool.ParallelFor(64, /*grain=*/8, [](int64_t) {}, "exec.off");
  Rng rng(1);
  nn::Tensor a = nn::Tensor::RandomNormal(2, 2, 1.0, rng);
  const nn::Tensor b = nn::Tensor::RandomNormal(2, 2, 1.0, rng);
  a.AddInPlace(b);
  EXPECT_TRUE(Profiler::Global().RegionSnapshot().empty());
  EXPECT_TRUE(Profiler::Global().OpSnapshot().empty());
}

// Trace spans and profiler regions read the same clock, common::NowMicros:
// a span and a dispatched region recorded between two readings of it lie
// between those readings.
TEST_F(GlobalProfilerTest, SpansAndRegionsReadOneClock) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  exec::ThreadPool pool(2);
  const int64_t before_us = common::NowMicros();
  {
    ScopedTrace span("profiler_test.one_clock", &recorder);
    // Two 1 ms chunks, so every duration spans many clock ticks.
    pool.ParallelFor(
        2, /*grain=*/1,
        [](int64_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        nullptr, "profiler_test.one_clock_region");
  }
  const int64_t after_us = common::NowMicros();

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].start_us, before_us);
  EXPECT_LE(spans[0].start_us + spans[0].dur_us, after_us);

  const RegionProfile region =
      Profiler::Global().RegionSnapshot().at("profiler_test.one_clock_region");
  ASSERT_EQ(region.dispatched, 1u);
  EXPECT_GE(region.wall_us, 1000);  // microseconds: at least one 1 ms chunk
  EXPECT_LE(region.wall_us, spans[0].dur_us);
  EXPECT_LE(region.wall_us, after_us - before_us);
  recorder.Clear();
}

}  // namespace
}  // namespace o2sr::obs
