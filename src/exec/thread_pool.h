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
// One region protocol (DESIGN.md §8): a region reaches the workers only
// through the pool's task slot, and only from the thread that owns the
// pool. Ownership is one atomic claim, held by at most one thread:
//  * an open Session holds it for a plan step and keeps the workers
//    spinning between its regions;
//  * any other multi-chunk region claims the pool for itself alone: it
//    wakes the sleeping workers, sleeps until the ones that joined have
//    left, and releases the claim.
// A region issued from inside a chunk of the same pool (nested), or while
// another thread owns the pool (contended), runs inline on the issuing
// thread with the identical chunking. So coarse-grained parallelism (bench
// seed replication) composes with the kernels underneath, and threads that
// share a pool neither wait for each other nor deadlock.
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

 private:
  friend class Session;
  // Claims the pool for the calling thread; false when any thread,
  // this one included, already owns it.
  bool TryClaim();
  void Release();
  // `lane` is the worker's slot in the per-region busy accounting: the
  // calling thread is lane 0, workers are 1..num_threads-1.
  void WorkerLoop(int lane);
  // Joins the task opened at `seq` and runs chunks of it; false when the
  // task closed before the worker got in.
  bool JoinTask(uint64_t seq, int lane);
  // Claims and runs chunks of the open task; returns busy microseconds.
  int64_t WorkChunks(const std::function<void(int64_t, int64_t)>& fn,
                     int64_t n, int64_t grain, int64_t num_chunks);
  void RunInline(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

  const int num_threads_;
  obs::Gauge* threads_gauge_;

  // The claim: the thread that owns the workers, or no thread (a
  // default-constructed id).
  std::atomic<std::thread::id> owner_{};

  // The sleeping workers' wait predicate reads stop_, session_open_ and
  // task_seq_ under mutex_. Every write that can turn it true (stop, a
  // Session's open, a claimed region's task open) takes the mutex and then
  // notifies. The lock-free writes only turn it false (a task's close, a
  // Session's close) or come while an open Session already holds it true.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  bool stop_ = false;

  // Per-lane busy time of the open task, for the profiler's busy/idle
  // attribution. Lane 0 is the owner. The owner zeroes the slots before it
  // opens a task, and it reads them after the joiners drained.
  std::vector<int64_t> lane_busy_us_;

  // True while a Session holds the claim. Idle workers then spin-then-yield
  // on the task slot; otherwise they sleep on work_cv_.
  alignas(64) std::atomic<bool> session_open_{false};
  // The task slot, a seqlock: an odd task_seq_ marks an open task. Only
  // the owner writes the task fields, and only between tasks (after the
  // previous task's joiners drained); a worker validates its snapshot
  // against task_seq_ before it runs a chunk.
  std::atomic<uint64_t> task_seq_{0};
  std::atomic<const std::function<void(int64_t, int64_t)>*> task_fn_{
      nullptr};
  std::atomic<int64_t> task_n_{0};
  std::atomic<int64_t> task_grain_{1};
  std::atomic<int64_t> task_chunks_{0};
  // Workers inside the task. An int, so a claimed region's owner sleeps
  // on it (atomic::wait) through a futex on this word.
  std::atomic<int> joined_{0};
  // The chunk cursor has a cache line of its own: every lane claims chunks
  // from it during a task while the lanes that ran out spin on task_seq_.
  alignas(64) std::atomic<int64_t> next_chunk_{0};

  std::vector<std::thread> workers_;
};

// Persistent parallel region ("one parallel region per step"). A Session
// holds the pool's claim for its lifetime and keeps the workers spinning
// between regions, so the many small regions of a compiled nn::Plan step
// pay one wake-up for the whole step instead of one per op. Regions from
// other threads find the pool owned and run inline; the path never changes
// a region's chunks, so results stay bit-identical.
//
// Sessions do not nest: a Session opened while any thread owns the pool, on
// a single-lane pool, or from inside a chunk of the pool does not engage.
class Session {
 public:
  explicit Session(ThreadPool& pool);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool engaged() const { return engaged_; }

 private:
  ThreadPool& pool_;
  bool engaged_ = false;
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
