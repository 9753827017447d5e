// Unit tests of the exec layer: the deterministic fork-join ThreadPool,
// chunked parallel loops/reductions, pool scoping, and the per-pool
// observability instruments.

#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <thread>
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
    Session session(pool);
    ASSERT_TRUE(session.engaged());
    pool.ParallelFor(kChunks, 1, [&](int64_t i) { ++visits[i]; });
  }
  for (int64_t v : visits) EXPECT_EQ(v, kSessions);
}

// Two threads that are not workers dispatch multi-chunk regions on one pool
// at once. One of them at a time owns the workers; a region that finds the
// pool owned runs inline on its own thread. Either way each region must
// write every one of its elements exactly once. Run once with both threads
// plain and once with one of them holding a Session over its whole loop.
TEST(ThreadPoolTest, ConcurrentDispatchersEachRunTheirOwnRegions) {
  ThreadPool pool(4, "exec.test_concurrent");
  constexpr int kRegions = 20000;
  constexpr int64_t kItems = 4096;
  constexpr int64_t kGrain = 256;  // 16 chunks per region
  for (const bool with_session : {false, true}) {
    SCOPED_TRACE(with_session ? "one thread in a Session" : "both plain");
    std::atomic<int> ready{0};
    bool engaged = false;
    int64_t wrong[2] = {0, 0};
    auto dispatch = [&](int id) {
      std::optional<Session> session;
      if (with_session && id == 0) {
        session.emplace(pool);
        engaged = session->engaged();
      }
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      std::vector<int32_t> writes(kItems, 0);
      for (int r = 1; r <= kRegions; ++r) {
        pool.ParallelFor(kItems, kGrain, [&](int64_t i) { ++writes[i]; });
        for (int32_t& w : writes) {
          if (w != r) ++wrong[id];
          w = r;
        }
      }
    };
    std::thread first(dispatch, 0);
    std::thread second(dispatch, 1);
    first.join();
    second.join();
    EXPECT_EQ(engaged, with_session);
    EXPECT_EQ(wrong[0], 0);
    EXPECT_EQ(wrong[1], 0);
  }
}

// A pool registers only its worker-count gauge; the profiler records its
// regions (GlobalProfilerTest in profiler_test.cc).
TEST(ThreadPoolMetricsTest, CountsRegionsAndTasks) {
  ThreadPool pool(2, "exec.test_metrics");
  obs::Gauge* threads =
      obs::MetricsRegistry::Global().GetGauge("exec.test_metrics.threads");
  EXPECT_EQ(threads->value(), 1.0);  // workers exclude the caller
}

TEST(ThreadPoolMetricsTest, InlineRegionsAreCounted) {
  ThreadPool pool(1, "exec.test_inline");
  obs::Gauge* threads =
      obs::MetricsRegistry::Global().GetGauge("exec.test_inline.threads");
  EXPECT_EQ(threads->value(), 0.0);  // a one-lane pool spawns no workers
}

}  // namespace
}  // namespace o2sr::exec
