#include "exec/thread_pool.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/clock.h"
#include "common/env.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace o2sr::exec {

namespace {

// Pool whose chunks this thread is running: set for a worker's whole life
// and around the owner's own share of a dispatched region. A region issued
// under it on the same pool is nested and runs inline; re-entering the task
// slot would overwrite the open task under the workers.
thread_local const ThreadPool* tls_chunk_pool = nullptr;
// Innermost PoolScope override for the current thread.
thread_local ThreadPool* tls_current_pool = nullptr;

}  // namespace

int NumThreadsFromEnv() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(std::min(hw, 256u));
  // 0 (the default) means "auto", not a clamp to one thread.
  const int64_t value = common::EnvInt(common::Knob::kThreads);
  return value == 0 ? fallback : static_cast<int>(value);
}

ThreadPool::ThreadPool(int num_threads, const std::string& metrics_prefix)
    : num_threads_(std::max(1, num_threads)) {
  threads_gauge_ =
      obs::MetricsRegistry::Global().GetGauge(metrics_prefix + ".threads");
  // The calling thread participates in every region, so num_threads - 1
  // workers saturate `num_threads` lanes.
  const int worker_count = num_threads_ - 1;
  threads_gauge_->Set(worker_count);
  lane_busy_us_.assign(static_cast<size_t>(num_threads_), 0);
  workers_.reserve(worker_count);
  for (int w = 0; w < worker_count; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Global() {
  // Leaked deliberately: worker threads must not be joined during static
  // destruction (they may hold locks on other leaked singletons).
  static ThreadPool* pool = new ThreadPool(NumThreadsFromEnv());
  return *pool;
}

bool ThreadPool::TryClaim() {
  std::thread::id none;
  return owner_.compare_exchange_strong(none, std::this_thread::get_id(),
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

void ThreadPool::Release() {
  owner_.store(std::thread::id(), std::memory_order_release);
}

void ThreadPool::RunInline(int64_t n, int64_t grain,
                           const std::function<void(int64_t, int64_t)>& fn) {
  for (int64_t begin = 0; begin < n; begin += grain) {
    fn(begin, std::min(n, begin + grain));
  }
}

void ThreadPool::RunChunks(int64_t n, int64_t grain,
                           const std::function<void(int64_t, int64_t)>& fn,
                           const char* trace_name,
                           const char* profile_name) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int64_t chunks = NumChunks(n, grain);

  // The profiler names a region by its trace name when it has one, else by
  // the kernel's profile name.
  const char* region_name = trace_name != nullptr ? trace_name : profile_name;
  obs::Profiler& profiler = obs::Profiler::Global();

  // A span only for named (coarse) regions; fine-grained kernel regions
  // pass nullptr to stay off the trace recorder's hot path.
  std::unique_ptr<obs::ScopedTrace> span;
  if (trace_name != nullptr) {
    span = std::make_unique<obs::ScopedTrace>(trace_name);
  }

  // The workers take the region when this thread owns the pool: through
  // its open Session, or through a claim taken for this region alone.
  // Single-lane pools, single-chunk regions, nested regions and regions
  // that find another thread owning the pool run inline with the identical
  // chunking.
  bool dispatch = !workers_.empty() && chunks > 1 && tls_chunk_pool != this;
  bool claimed = false;
  if (dispatch &&
      owner_.load(std::memory_order_relaxed) != std::this_thread::get_id()) {
    dispatch = claimed = TryClaim();
  }
  if (!dispatch) {
    if (profiler.enabled()) {
      profiler.RecordInlineRegion(region_name, n, chunks);
    }
    RunInline(n, grain, fn);
    return;
  }

  const int64_t start_us = common::NowMicros();
  // Write the task, then open it. The previous task's joiners drained
  // before it returned, so no worker reads these fields while they change
  // except one that also fails its task_seq_ recheck.
  next_chunk_.store(0, std::memory_order_relaxed);
  std::fill(lane_busy_us_.begin(), lane_busy_us_.end(), 0);
  task_n_.store(n, std::memory_order_relaxed);
  task_grain_.store(grain, std::memory_order_relaxed);
  task_chunks_.store(chunks, std::memory_order_relaxed);
  task_fn_.store(&fn, std::memory_order_relaxed);
  if (claimed) {
    // Outside a Session the idle workers sleep: open the task under the
    // mutex their wait predicate reads, then wake them.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_seq_.fetch_add(1, std::memory_order_seq_cst);
    }
    work_cv_.notify_all();
  } else {
    task_seq_.fetch_add(1, std::memory_order_seq_cst);
  }

  {
    const ThreadPool* previous = tls_chunk_pool;
    tls_chunk_pool = this;
    lane_busy_us_[0] = WorkChunks(fn, n, grain, chunks);
    tls_chunk_pool = previous;
  }
  // Every chunk has been claimed. Close the task, then wait for the workers
  // that joined it: they hold the chunks still running, and a late joiner
  // must leave before the next task resets the cursor. A Session's regions
  // drain within microseconds, so its owner spins; a claimed region's chunk
  // may be a whole training run (bench seed replication), so its owner
  // sleeps until the last joiner leaves.
  task_seq_.fetch_add(1, std::memory_order_seq_cst);
  for (int joined; (joined = joined_.load(std::memory_order_seq_cst)) != 0;) {
    if (claimed) {
      joined_.wait(joined, std::memory_order_seq_cst);
    } else {
      std::this_thread::yield();
    }
  }

  // The drain ordered every worker's lane write before this read.
  if (profiler.enabled()) {
    const int64_t wall_us =
        std::max<int64_t>(1, common::NowMicros() - start_us);
    profiler.RecordDispatchedRegion(region_name, n, chunks, wall_us,
                                    lane_busy_us_.data(), num_threads_);
  }
  if (claimed) Release();
}

int64_t ThreadPool::WorkChunks(const std::function<void(int64_t, int64_t)>& fn,
                               int64_t n, int64_t grain, int64_t num_chunks) {
  const int64_t started_us = common::NowMicros();
  while (true) {
    const int64_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks) break;
    const int64_t begin = chunk * grain;
    fn(begin, std::min(n, begin + grain));
  }
  return common::NowMicros() - started_us;
}

bool ThreadPool::JoinTask(uint64_t seq, int lane) {
  // Seqlock snapshot of the task.
  const std::function<void(int64_t, int64_t)>* fn =
      task_fn_.load(std::memory_order_relaxed);
  const int64_t n = task_n_.load(std::memory_order_relaxed);
  const int64_t grain = task_grain_.load(std::memory_order_relaxed);
  const int64_t chunks = task_chunks_.load(std::memory_order_relaxed);
  // The recheck after the increment pairs with the owner's close bump and
  // drain: either the owner waits for this worker, or this worker sees the
  // task closed and never touches the cursor. A snapshot that passes the
  // recheck is the open task's.
  joined_.fetch_add(1, std::memory_order_seq_cst);
  const bool open = task_seq_.load(std::memory_order_seq_cst) == seq;
  if (open) {
    lane_busy_us_[static_cast<size_t>(lane)] +=
        WorkChunks(*fn, n, grain, chunks);
  }
  // The last one out wakes an owner asleep in its drain; with no sleeper
  // the notify is one load.
  if (joined_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    joined_.notify_all();
  }
  return open;
}

void ThreadPool::WorkerLoop(int lane) {
  tls_chunk_pool = this;
  uint64_t seen = 0;  // the last task this worker joined
  while (true) {
    const uint64_t seq = task_seq_.load(std::memory_order_acquire);
    if ((seq & 1) != 0 && seq != seen) {
      if (JoinTask(seq, lane)) seen = seq;
      continue;
    }
    // Idle. Inside a Session the next region is microseconds away, so
    // spin; outside one, sleep until a Session opens or a task does.
    if (session_open_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [&] {
      const uint64_t next = task_seq_.load(std::memory_order_relaxed);
      return stop_ || session_open_.load(std::memory_order_relaxed) ||
             ((next & 1) != 0 && next != seen);
    });
    if (stop_) return;
  }
}

Session::Session(ThreadPool& pool) : pool_(pool) {
  if (pool.workers_.empty() || tls_chunk_pool == &pool || !pool.TryClaim()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool.mutex_);
    pool.session_open_.store(true, std::memory_order_relaxed);
  }
  pool.work_cv_.notify_all();
  engaged_ = true;
}

Session::~Session() {
  if (!engaged_) return;
  // No task is open (every region drains before it returns); the workers
  // go back to sleep once they see the flag down.
  pool_.session_open_.store(false, std::memory_order_relaxed);
  pool_.Release();
}

ThreadPool& CurrentPool() {
  return tls_current_pool != nullptr ? *tls_current_pool
                                     : ThreadPool::Global();
}

PoolScope::PoolScope(ThreadPool* pool) : previous_(tls_current_pool) {
  O2SR_CHECK(pool != nullptr);
  tls_current_pool = pool;
}

PoolScope::~PoolScope() { tls_current_pool = previous_; }

}  // namespace o2sr::exec
