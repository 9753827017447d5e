// Unit tests of the exec layer: the deterministic fork-join ThreadPool,
// chunked parallel loops/reductions, pool scoping, and the per-pool
// observability instruments.

#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace o2sr::exec {
namespace {

TEST(NumChunksTest, CoversRangeExactly) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 4), 0);
  EXPECT_EQ(ThreadPool::NumChunks(-3, 4), 0);
  EXPECT_EQ(ThreadPool::NumChunks(1, 4), 1);
  EXPECT_EQ(ThreadPool::NumChunks(4, 4), 1);
  EXPECT_EQ(ThreadPool::NumChunks(5, 4), 2);
  EXPECT_EQ(ThreadPool::NumChunks(100, 1), 100);
  EXPECT_EQ(ThreadPool::NumChunks(7, 0), 7);  // grain floored at 1
}

TEST(NumThreadsFromEnvTest, ParsesOverride) {
  ::setenv("O2SR_THREADS", "3", 1);
  EXPECT_EQ(NumThreadsFromEnv(), 3);
  ::setenv("O2SR_THREADS", "100000", 1);
  EXPECT_EQ(NumThreadsFromEnv(), 256);
  ::unsetenv("O2SR_THREADS");
  const int auto_threads = NumThreadsFromEnv();
  EXPECT_GE(auto_threads, 1);
  // 0 is the long-standing "auto" convention: hardware concurrency, never
  // a silent one-thread clamp.
  ::setenv("O2SR_THREADS", "0", 1);
  EXPECT_EQ(NumThreadsFromEnv(), auto_threads);
  ::unsetenv("O2SR_THREADS");
}

TEST(NumThreadsFromEnvDeathTest, GarbageIsFatal) {
  ::setenv("O2SR_THREADS", "garbage", 1);
  EXPECT_DEATH(NumThreadsFromEnv(), "O2SR_THREADS='garbage'");
  ::unsetenv("O2SR_THREADS");
}

class PooledTest : public ::testing::TestWithParam<int> {};

TEST_P(PooledTest, ParallelForVisitsEachIndexOnce) {
  ThreadPool pool(GetParam(), "exec.test");
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, /*grain=*/7,
                   [&](int64_t i) { visits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_P(PooledTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(GetParam(), "exec.test");
  bool called = false;
  pool.ParallelFor(0, 16, [&](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_P(PooledTest, ParallelReduceSumsExactly) {
  ThreadPool pool(GetParam(), "exec.test");
  constexpr int64_t kN = 1234;
  const int64_t total = pool.ParallelReduce(
      kN, /*grain=*/17, int64_t{0},
      [](int64_t begin, int64_t end) {
        int64_t s = 0;
        for (int64_t i = begin; i < end; ++i) s += i;
        return s;
      },
      [](int64_t acc, int64_t partial) { return acc + partial; });
  EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST_P(PooledTest, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadPool pool(GetParam(), "exec.test");
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 50;
  std::vector<int64_t> inner_sums(kOuter, 0);
  pool.ParallelFor(kOuter, 1, [&](int64_t o) {
    // A region issued from a worker executes inline on that worker.
    int64_t local = 0;
    pool.ParallelFor(kInner, 8, [&](int64_t i) { local += i; });
    inner_sums[o] = local;
  });
  for (int64_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(inner_sums[o], kInner * (kInner - 1) / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PooledTest,
                         ::testing::Values(1, 2, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// Reduction association is defined by the chunk grid, not the thread
// count: partials fold in chunk order on the calling thread.
TEST(ThreadPoolTest, ReduceAssociationMatchesChunkOrder) {
  // Values chosen so float association matters if the fold order changed.
  constexpr int64_t kN = 4096;
  std::vector<float> values(kN);
  for (int64_t i = 0; i < kN; ++i) {
    values[i] = (i % 2 == 0 ? 1.0f : -1.0f) * (1.0f + 1e-3f * i);
  }
  auto run = [&](ThreadPool& pool) {
    return pool.ParallelReduce(
        kN, /*grain=*/31, 0.0f,
        [&](int64_t begin, int64_t end) {
          float s = 0.0f;
          for (int64_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](float acc, float partial) { return acc + partial; });
  };
  ThreadPool serial(1, "exec.test");
  ThreadPool two(2, "exec.test");
  ThreadPool eight(8, "exec.test");
  const float want = run(serial);
  EXPECT_EQ(want, run(two));    // bit-identical, not just close
  EXPECT_EQ(want, run(eight));
}

TEST(PoolScopeTest, OverridesAndRestoresCurrentPool) {
  ThreadPool& global = ThreadPool::Global();
  EXPECT_EQ(&CurrentPool(), &global);
  ThreadPool outer(2, "exec.test");
  {
    PoolScope outer_scope(&outer);
    EXPECT_EQ(&CurrentPool(), &outer);
    ThreadPool inner(1, "exec.test");
    {
      PoolScope inner_scope(&inner);
      EXPECT_EQ(&CurrentPool(), &inner);
    }
    EXPECT_EQ(&CurrentPool(), &outer);
  }
  EXPECT_EQ(&CurrentPool(), &global);
}

// Many short Sessions back to back, each running one region. Two windows
// between one session's close and the next one's open used to break the
// pool: a worker woken for a session that closed before its recheck ran a
// region that did not exist (segfault), and a straggler of the previous
// session was zeroed out of the worker count by the next open, so the
// count went negative and the owner's drain spun forever (hang).
TEST(SessionTest, ManyShortSessionsNeitherCrashNorHang) {
  ThreadPool pool(4, "exec.test_sessions");
  constexpr int kSessions = 20000;
  constexpr int64_t kChunks = 8;
  std::vector<int64_t> visits(kChunks, 0);
  for (int s = 0; s < kSessions; ++s) {
    Session session(pool, nullptr);
    ASSERT_TRUE(session.engaged());
    pool.ParallelFor(kChunks, 1, [&](int64_t i) { ++visits[i]; });
  }
  for (int64_t v : visits) EXPECT_EQ(v, kSessions);
}

TEST(ThreadPoolMetricsTest, CountsRegionsAndTasks) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  ThreadPool pool(2, "exec.test_metrics");
  obs::Counter* regions = reg.GetCounter("exec.test_metrics.regions");
  obs::Counter* tasks = reg.GetCounter("exec.test_metrics.tasks");
  obs::Gauge* threads = reg.GetGauge("exec.test_metrics.threads");
  obs::Gauge* depth = reg.GetGauge("exec.test_metrics.queue_depth");
  obs::Gauge* util = reg.GetGauge("exec.test_metrics.worker_utilization");

  EXPECT_EQ(threads->value(), 1.0);  // workers exclude the caller
  const uint64_t regions_before = regions->value();
  const uint64_t tasks_before = tasks->value();
  pool.ParallelFor(100, 10, [](int64_t) {});
  EXPECT_EQ(regions->value(), regions_before + 1);
  EXPECT_EQ(tasks->value(), tasks_before + 10);
  EXPECT_EQ(depth->value(), 0.0);  // drained once the region completes
  EXPECT_GE(util->value(), 0.0);
  EXPECT_LE(util->value(), 1.0);
}

TEST(ThreadPoolMetricsTest, InlineRegionsAreCounted) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  ThreadPool pool(1, "exec.test_inline");
  obs::Counter* inline_regions =
      reg.GetCounter("exec.test_inline.inline_regions");
  const uint64_t before = inline_regions->value();
  pool.ParallelFor(50, 10, [](int64_t) {});
  EXPECT_EQ(inline_regions->value(), before + 1);
}

}  // namespace
}  // namespace o2sr::exec
