#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "common/check.h"
#include "common/env.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace o2sr::exec {

namespace {

// Pool whose worker the current thread is (nullptr on non-worker threads).
thread_local const ThreadPool* tls_worker_pool = nullptr;
// Pool whose dispatched region this (caller) thread is currently executing
// chunks of. A nested region issued from inside a chunk body must run
// inline — re-entering RunChunks would overwrite the active region state
// under the workers. InWorker() covers worker threads; this covers the
// calling thread, which participates in every region.
thread_local const ThreadPool* tls_region_caller_pool = nullptr;
// Innermost PoolScope override for the current thread.
thread_local ThreadPool* tls_current_pool = nullptr;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  threads_gauge_ = registry.GetGauge(metrics_prefix + ".threads");
  regions_counter_ = registry.GetCounter(metrics_prefix + ".regions");
  tasks_counter_ = registry.GetCounter(metrics_prefix + ".tasks");
  inline_regions_counter_ =
      registry.GetCounter(metrics_prefix + ".inline_regions");
  queue_depth_gauge_ = registry.GetGauge(metrics_prefix + ".queue_depth");
  utilization_gauge_ =
      registry.GetGauge(metrics_prefix + ".worker_utilization");
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

bool ThreadPool::InWorker() const { return tls_worker_pool == this; }

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

  // Regions issued by the owning thread of an open Session skip the
  // mutex/condvar handshake and publish through the session's lock-free
  // task slot. Identical chunking, so identical results.
  if (session_active_.load(std::memory_order_acquire) &&
      session_owner_ == std::this_thread::get_id() && !InWorker() &&
      tls_region_caller_pool != this) {
    SessionRunChunks(n, grain, fn, trace_name, profile_name);
    return;
  }

  const int64_t chunks = NumChunks(n, grain);
  regions_counter_->Increment();
  tasks_counter_->Increment(static_cast<uint64_t>(chunks));

  // The profiler names a region by its trace name when it has one, else by
  // the kernel's profile name.
  const char* region_name = trace_name != nullptr ? trace_name : profile_name;

  // A span only for named (coarse) regions; fine-grained kernel regions
  // pass nullptr to stay off the trace recorder's hot path.
  std::unique_ptr<obs::ScopedTrace> span;
  if (trace_name != nullptr) {
    span = std::make_unique<obs::ScopedTrace>(trace_name);
  }

  // Single-lane pools, single-chunk regions, and regions issued from one of
  // our own workers (nested parallelism) run inline with the identical
  // chunking.
  if (workers_.empty() || chunks <= 1 || InWorker() ||
      tls_region_caller_pool == this) {
    inline_regions_counter_->Increment();
    {
      obs::Profiler& profiler = obs::Profiler::Global();
      if (profiler.enabled()) {
        profiler.RecordInlineRegion(region_name, n, chunks);
      }
    }
    RunInline(n, grain, fn);
    return;
  }

  const int64_t start_us = NowMicros();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    region_fn_ = &fn;
    region_n_ = n;
    region_grain_ = grain;
    region_chunks_ = chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    pending_chunks_.store(chunks, std::memory_order_relaxed);
    busy_us_.store(0, std::memory_order_relaxed);
    std::fill(lane_busy_us_.begin(), lane_busy_us_.end(), 0);
    ++region_epoch_;
  }
  queue_depth_gauge_->Set(static_cast<double>(chunks));
  work_cv_.notify_all();

  {
    const ThreadPool* previous = tls_region_caller_pool;
    tls_region_caller_pool = this;
    const int64_t caller_busy = WorkChunks(fn, n, grain, chunks);
    tls_region_caller_pool = previous;
    busy_us_.fetch_add(caller_busy, std::memory_order_relaxed);
    lane_busy_us_[0] = caller_busy;
  }

  {
    // Wait until every chunk ran AND every worker left the region: a
    // straggler that woke late must not observe the next region's cursor
    // with this region's function pointer.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] {
      return pending_chunks_.load(std::memory_order_acquire) == 0 &&
             active_workers_ == 0;
    });
    region_fn_ = nullptr;
  }
  const int64_t wall_us = std::max<int64_t>(1, NowMicros() - start_us);
  utilization_gauge_->Set(
      static_cast<double>(busy_us_.load(std::memory_order_relaxed)) /
      (static_cast<double>(wall_us) * num_threads_));
  queue_depth_gauge_->Set(0.0);
  {
    // The completion handshake above ordered every worker's lane write
    // before this read.
    obs::Profiler& profiler = obs::Profiler::Global();
    if (profiler.enabled()) {
      profiler.RecordDispatchedRegion(region_name, n, chunks, wall_us,
                                      lane_busy_us_.data(), num_threads_);
    }
  }
}

void ThreadPool::SessionRunChunks(
    int64_t n, int64_t grain, const std::function<void(int64_t, int64_t)>& fn,
    const char* trace_name, const char* profile_name) {
  const int64_t chunks = NumChunks(n, grain);
  const char* region_name = trace_name != nullptr ? trace_name : profile_name;
  regions_counter_->Increment();
  tasks_counter_->Increment(static_cast<uint64_t>(chunks));
  if (chunks <= 1) {
    inline_regions_counter_->Increment();
    obs::Profiler& profiler = obs::Profiler::Global();
    if (profiler.enabled()) {
      profiler.RecordInlineRegion(region_name, n, chunks);
    }
    RunInline(n, grain, fn);
    return;
  }

  const int64_t start_us = NowMicros();
  // Publish the task. Stragglers from the previous task were drained by its
  // completion wait, so the plain/relaxed state writes below cannot race
  // with a worker snapshot: any worker that reads them while we write also
  // fails its seq recheck and discards the snapshot.
  next_chunk_.store(0, std::memory_order_relaxed);
  pending_chunks_.store(chunks, std::memory_order_relaxed);
  std::fill(lane_busy_us_.begin(), lane_busy_us_.end(), 0);
  session_n_.store(n, std::memory_order_relaxed);
  session_grain_.store(grain, std::memory_order_relaxed);
  session_chunks_.store(chunks, std::memory_order_relaxed);
  session_fn_.store(&fn, std::memory_order_relaxed);
  // Open bump: odd seq values mark an open task.
  session_seq_.fetch_add(1, std::memory_order_seq_cst);

  {
    const ThreadPool* previous = tls_region_caller_pool;
    tls_region_caller_pool = this;
    const int64_t caller_busy = WorkChunks(fn, n, grain, chunks);
    tls_region_caller_pool = previous;
    lane_busy_us_[0] = caller_busy;
  }
  // Wait until every chunk ran, close the task, then drain stragglers: a
  // worker that joined before the close bump claims nothing (the cursor is
  // exhausted) but must leave before the next task may reset the cursor.
  while (pending_chunks_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  session_seq_.fetch_add(1, std::memory_order_seq_cst);
  while (session_workers_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  session_fn_.store(nullptr, std::memory_order_relaxed);

  const int64_t wall_us = std::max<int64_t>(1, NowMicros() - start_us);
  int64_t busy = 0;
  for (int64_t lane : lane_busy_us_) busy += lane;
  utilization_gauge_->Set(static_cast<double>(busy) /
                          (static_cast<double>(wall_us) * num_threads_));
  obs::Profiler& profiler = obs::Profiler::Global();
  if (profiler.enabled()) {
    profiler.RecordDispatchedRegion(region_name, n, chunks, wall_us,
                                    lane_busy_us_.data(), num_threads_);
  }
}

void ThreadPool::SessionWorkerLoop(int lane) {
  uint64_t seen = session_seq_.load(std::memory_order_acquire);
  if ((seen & 1) != 0) --seen;  // a task already open: join it below
  while (session_active_.load(std::memory_order_acquire)) {
    const uint64_t seq = session_seq_.load(std::memory_order_acquire);
    if (seq == seen || (seq & 1) == 0) {
      std::this_thread::yield();
      continue;
    }
    // Seqlock snapshot of the open task.
    const std::function<void(int64_t, int64_t)>* fn =
        session_fn_.load(std::memory_order_acquire);
    const int64_t n = session_n_.load(std::memory_order_relaxed);
    const int64_t grain = session_grain_.load(std::memory_order_relaxed);
    const int64_t chunks = session_chunks_.load(std::memory_order_relaxed);
    if (session_seq_.load(std::memory_order_acquire) != seq ||
        fn == nullptr) {
      continue;
    }
    // Join the task; the recheck after the increment pairs with the owner's
    // close-bump + drain so a late joiner can never overlap the next task's
    // cursor reset.
    session_workers_.fetch_add(1, std::memory_order_seq_cst);
    if (session_seq_.load(std::memory_order_seq_cst) != seq) {
      session_workers_.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    seen = seq;
    const int64_t busy = WorkChunks(*fn, n, grain, chunks);
    lane_busy_us_[static_cast<size_t>(lane)] += busy;
    busy_us_.fetch_add(busy, std::memory_order_relaxed);
    session_workers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

Session::Session(ThreadPool& pool, const char* trace_name) : pool_(pool) {
  if (trace_name != nullptr) {
    span_ = new obs::ScopedTrace(trace_name);
  }
  if (pool.workers_.empty() || pool.InWorker() ||
      tls_region_caller_pool == &pool) {
    return;
  }
  std::lock_guard<std::mutex> lock(pool.mutex_);
  if (pool.session_active_.load(std::memory_order_relaxed)) return;
  pool.session_owner_ = std::this_thread::get_id();
  pool.session_fn_.store(nullptr, std::memory_order_relaxed);
  // session_workers_ is deliberately not reset: a straggler of the previous
  // session may sit between its join increment and its leave decrement, and
  // zeroing the count under it would leave it at -1 once it leaves.
  pool.session_active_.store(true, std::memory_order_release);
  engaged_ = true;
  pool.work_cv_.notify_all();
}

Session::~Session() {
  if (engaged_) {
    // No task is in flight (Run waits for completion), so closing is just
    // flipping the flag; workers fall back to the condvar wait.
    pool_.session_active_.store(false, std::memory_order_release);
  }
  delete static_cast<obs::ScopedTrace*>(span_);
}

int64_t ThreadPool::WorkChunks(const std::function<void(int64_t, int64_t)>& fn,
                               int64_t n, int64_t grain, int64_t num_chunks) {
  const int64_t started_us = NowMicros();
  while (true) {
    const int64_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks) break;
    const int64_t begin = chunk * grain;
    fn(begin, std::min(n, begin + grain));
    if (pending_chunks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk of the region: wake the caller. Locking the mutex before
      // notifying pairs with the caller's predicate check.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
  return NowMicros() - started_us;
}

void ThreadPool::WorkerLoop(int lane) {
  tls_worker_pool = this;
  uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t n = 0, grain = 1, chunks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || session_active_.load(std::memory_order_relaxed) ||
               (region_fn_ != nullptr && region_epoch_ != seen_epoch &&
                next_chunk_.load(std::memory_order_relaxed) < region_chunks_);
      });
      if (stop_) return;
      if (session_active_.load(std::memory_order_relaxed)) {
        lock.unlock();
        SessionWorkerLoop(lane);
        continue;
      }
      // Woken for a session its owner closed (without the mutex) before
      // this recheck: there may be no region to join at all.
      if (region_fn_ == nullptr || region_epoch_ == seen_epoch) continue;
      seen_epoch = region_epoch_;
      fn = region_fn_;
      n = region_n_;
      grain = region_grain_;
      chunks = region_chunks_;
      ++active_workers_;
    }
    const int64_t busy = WorkChunks(*fn, n, grain, chunks);
    busy_us_.fetch_add(busy, std::memory_order_relaxed);
    lane_busy_us_[static_cast<size_t>(lane)] = busy;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0 &&
          pending_chunks_.load(std::memory_order_acquire) == 0) {
        done_cv_.notify_all();
      }
    }
  }
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
