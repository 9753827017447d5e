#ifndef O2SR_EXEC_THREAD_POOL_H_
#define O2SR_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace o2sr::obs {
class Gauge;
}  // namespace o2sr::obs

namespace o2sr::exec {

// Deterministic fork-join execution layer.
//
// A ThreadPool owns a fixed set of worker threads and runs one parallel
// region at a time. A region partitions an index range [0, n) into
// fixed-size chunks of `grain` elements; workers (plus the calling thread)
// claim chunks from a single atomic cursor — there is no work stealing and
// no per-worker queue, so the partition is a pure function of (n, grain).
//
// Determinism contract (see DESIGN.md §8): which *thread* runs a chunk is
// racy, but chunk boundaries, the state each chunk writes, and the order of
// any cross-chunk reduction are fixed. Kernels built on this layer are
// bit-identical to their single-threaded execution at every thread count:
//  * ParallelFor bodies write disjoint output slots indexed by the loop
//    variable, so thread assignment cannot be observed;
//  * ParallelReduce evaluates one partial per chunk and folds the partials
//    left-to-right on the calling thread. The chunking (not the thread
//    count) defines the floating-point association, and the same chunking
//    is used even when the region runs inline on one thread.
//
// Nested regions run inline: a ParallelFor issued from a worker thread of
// the same pool executes serially on that worker (chunked identically), so
// coarse-grained parallelism (e.g. bench seed replication) composes with
// the parallel kernels underneath without deadlock or oversubscription.
//
// Observability: each pool registers one gauge under its metrics prefix
// (default "exec.pool"), <prefix>.threads, the worker count (excluding the
// caller). Every region is recorded by obs::Profiler (when it is on): its
// items, chunks, whether it dispatched or ran inline, and, timed with
// common::NowMicros, its wall time and the busy time of each lane.
// Regions may also carry a trace span: pass `trace_name` and the region
// shows up in O2SR_TRACE_FILE exports and BENCH stages_ms. Fine-grained
// kernels (per-matmul regions) pass nullptr — a span per matmul would
// flood the recorder — and identify themselves to the profiler with
// `profile_name` instead, which names the region in O2SR_PROFILE_FILE
// reports without creating a trace span. Every kernel in the tree passes
// one; an unnamed region would aggregate under "(kernel)" and ci.sh
// asserts no such row exists.

// Worker count for the process-wide pool: O2SR_THREADS when set to a
// positive integer, otherwise std::thread::hardware_concurrency(), floored
// at 1 and capped at 256. O2SR_THREADS=0 explicitly means "auto"
// (hardware concurrency), not a one-thread clamp.
int NumThreadsFromEnv();

class ThreadPool {
 public:
  // `num_threads` is the total parallelism of a region (the calling thread
  // participates, so num_threads == 1 spawns no workers and every region
  // runs inline).
  explicit ThreadPool(int num_threads,
                      const std::string& metrics_prefix = "exec.pool");
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // The process-wide pool, sized by NumThreadsFromEnv() on first use.
  static ThreadPool& Global();

  // Number of grain-sized chunks covering [0, n).
  static int64_t NumChunks(int64_t n, int64_t grain) {
    if (n <= 0) return 0;
    if (grain < 1) grain = 1;
    return (n + grain - 1) / grain;
  }

  // Runs chunk_fn(begin, end) over every grain-sized chunk of [0, n).
  // Blocks until the region completes. Chunks are claimed dynamically but
  // their boundaries are fixed; the body must only write state that is
  // disjoint across chunks. `profile_name` names the region in profiler
  // reports when `trace_name` is null (kernels pass a profile name, coarse
  // stages pass a trace name).
  void RunChunks(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& chunk_fn,
                 const char* trace_name = nullptr,
                 const char* profile_name = nullptr);

  // Elementwise loop: fn(i) for every i in [0, n).
  template <typename Fn>
  void ParallelFor(int64_t n, int64_t grain, Fn&& fn,
                   const char* trace_name = nullptr,
                   const char* profile_name = nullptr) {
    RunChunks(
        n, grain,
        [&fn](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) fn(i);
        },
        trace_name, profile_name);
  }

  // Ordered reduction: chunk_fn(begin, end) produces one partial per chunk;
  // the partials are folded left-to-right (chunk order) on the calling
  // thread with reduce_fn(accumulator, partial). Because the chunking
  // depends only on (n, grain), the result is bit-identical at any thread
  // count — but it is NOT the same association as one straight-line loop,
  // so call sites must use ParallelReduce for *every* execution, including
  // the nominally serial one.
  template <typename T, typename ChunkFn, typename ReduceFn>
  T ParallelReduce(int64_t n, int64_t grain, T init, ChunkFn&& chunk_fn,
                   ReduceFn&& reduce_fn, const char* trace_name = nullptr,
                   const char* profile_name = nullptr) {
    const int64_t chunks = NumChunks(n, grain);
    if (chunks == 0) return init;
    if (grain < 1) grain = 1;
    std::vector<T> partials(static_cast<size_t>(chunks));
    RunChunks(
        n, grain,
        [&](int64_t begin, int64_t end) {
          partials[static_cast<size_t>(begin / grain)] = chunk_fn(begin, end);
        },
        trace_name, profile_name);
    T acc = std::move(init);
    for (T& partial : partials) acc = reduce_fn(std::move(acc), partial);
    return acc;
  }

  // True when the calling thread is one of this pool's workers (such calls
  // run regions inline).
  bool InWorker() const;

 private:
  friend class Session;
  // `lane` is the worker's slot in the per-region busy accounting: the
  // calling thread is lane 0, workers are 1..num_threads-1.
  void WorkerLoop(int lane);
  // Spin-then-yield loop a worker runs while a Session is open; returns
  // when the session closes.
  void SessionWorkerLoop(int lane);
  // RunChunks body for the session fast path (no mutex/condvar handshake).
  void SessionRunChunks(int64_t n, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn,
                        const char* trace_name, const char* profile_name);
  // Claims and runs chunks of the active region; returns busy microseconds.
  int64_t WorkChunks(const std::function<void(int64_t, int64_t)>& fn,
                     int64_t n, int64_t grain, int64_t num_chunks);
  void RunInline(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

  const int num_threads_;
  obs::Gauge* threads_gauge_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a region
  std::condition_variable done_cv_;  // the caller waits for completion
  bool stop_ = false;

  // The active region (one at a time; guarded by mutex_ except the atomics).
  const std::function<void(int64_t, int64_t)>* region_fn_ = nullptr;
  int64_t region_n_ = 0;
  int64_t region_grain_ = 1;
  int64_t region_chunks_ = 0;
  std::atomic<int64_t> next_chunk_{0};
  std::atomic<int64_t> pending_chunks_{0};
  uint64_t region_epoch_ = 0;
  int active_workers_ = 0;  // workers currently inside the region
  // Per-lane busy time of the active region, for the profiler's busy/idle
  // attribution. Lane 0 is the caller. Each slot is written by exactly one
  // thread per region; the region's completion handshake (mutex + done_cv)
  // orders those writes before the caller reads them.
  std::vector<int64_t> lane_busy_us_;

  // Persistent-session state (see Session below). While a session is open,
  // workers spin in SessionWorkerLoop instead of sleeping on work_cv_, and
  // regions issued by the owning thread publish tasks through these fields
  // with a seqlock instead of the mutex/condvar handshake. All plain fields
  // are written by the owner thread only, between tasks; workers validate
  // their snapshot against session_seq_ before executing.
  std::atomic<bool> session_active_{false};
  std::atomic<uint64_t> session_seq_{0};
  std::thread::id session_owner_{};
  std::atomic<const std::function<void(int64_t, int64_t)>*> session_fn_{
      nullptr};
  std::atomic<int64_t> session_n_{0};
  std::atomic<int64_t> session_grain_{1};
  std::atomic<int64_t> session_chunks_{0};
  std::atomic<int64_t> session_workers_{0};  // workers inside the task

  std::vector<std::thread> workers_;
};

// Persistent parallel region ("one parallel region per step").
//
// Opening a Session moves the pool's workers from the sleeping
// condvar-wait into a spin-then-yield loop for the session's lifetime, so
// a sequence of many small regions issued by the owning thread (a compiled
// nn::Plan step, for example) pays one wake-up for the whole step instead
// of a mutex/condvar fork-join per op. While the session is open, every
// RunChunks/ParallelFor/ParallelReduce issued *by the owning thread* is
// routed through the session's lock-free task queue automatically; regions
// issued by other threads run inline (the workers are dedicated to the
// session). Chunk boundaries and reduction order are identical to the
// non-session path, so results stay bit-identical — the session changes
// only how chunks reach the workers, never what the chunks are.
//
// Sessions do not nest: opening a session inside a session, from a worker,
// or from inside a running region is a no-op (regions keep their normal
// inline behavior there).
class Session {
 public:
  Session(ThreadPool& pool, const char* trace_name);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool engaged() const { return engaged_; }

 private:
  ThreadPool& pool_;
  bool engaged_ = false;
  void* span_ = nullptr;  // owned obs::ScopedTrace when trace_name given
};

// The pool the parallel kernels dispatch to: the innermost PoolScope on the
// calling thread, or ThreadPool::Global() when none is installed.
ThreadPool& CurrentPool();

// RAII thread-local pool override. Installing a scope routes every kernel
// on this thread (tensor ops, graph builds, eval scoring) to `pool` —
// this is how TrainContext::pool reaches the kernels without threading a
// pool pointer through every call signature.
class PoolScope {
 public:
  explicit PoolScope(ThreadPool* pool);
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace o2sr::exec

#endif  // O2SR_EXEC_THREAD_POOL_H_
