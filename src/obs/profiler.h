#ifndef O2SR_OBS_PROFILER_H_
#define O2SR_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace o2sr::obs {

// Performance-attribution profiler (DESIGN.md §12). Two aggregation axes:
//
//  * Parallel regions — every exec::ThreadPool region reports its chunking
//    (item count, chunk count), whether it dispatched to workers or ran
//    inline, the region wall time and the busy time of every participating
//    lane (lane 0 is the calling thread, lanes 1.. are the pool workers),
//    both read from common::NowMicros, the clock trace spans read.
//    From this the report derives the per-region busy/idle split and the
//    fork-join overhead that ROADMAP item 1 needs to attribute the
//    `speedup_threads4 = 0.96` regression: a region whose lanes are mostly
//    idle is dispatch-bound, not compute-bound.
//
//  * Ops — tensor kernels and tape ops count dispatches, bytes moved
//    (operand + result traffic) and items processed (elements or flops).
//
// The profiler is off by default: the hot-path cost of a disabled profiler
// is one relaxed atomic load per record site. It turns on when
// O2SR_PROFILE_FILE is set (the report is written there at process exit)
// or explicitly via Enable(). All record calls are thread-safe.
//
// Determinism: every *count* field (regions, chunks, items, dispatches,
// bytes) is a pure function of the executed work, so two runs of the same
// workload produce identical counts at any thread count — ci.sh asserts
// this. Time fields (wall/busy/idle) vary run to run; the report keeps the
// two kinds in separately named fields so diffing tools can tell them
// apart.

struct RegionProfile {
  uint64_t regions = 0;          // times the region executed
  uint64_t dispatched = 0;       // executions fanned out to workers
  uint64_t inline_runs = 0;      // executions that ran serially
  uint64_t chunks = 0;           // total chunks over all executions
  uint64_t items = 0;            // total loop items (sum of n)
  uint64_t min_items = 0;        // smallest single execution (0 until set)
  uint64_t max_items = 0;        // largest single execution
  // Dispatched executions only (inline runs have no fork-join):
  int64_t wall_us = 0;           // sum of region wall clock
  int64_t busy_us = 0;           // sum of lane busy time, all lanes
  // Per-lane busy time; index 0 is the calling thread. Sized by the
  // largest lane count seen.
  std::vector<int64_t> lane_busy_us;

  // Idle = lanes * wall - busy: time participants spent waiting on the
  // region (fork/join latency, chunk starvation, load imbalance).
  int64_t IdleUs() const {
    const int64_t lanes = static_cast<int64_t>(lane_busy_us.size());
    const int64_t total = lanes * wall_us - busy_us;
    return total > 0 ? total : 0;
  }
  // busy / (lanes * wall) over the dispatched executions; 0 when none.
  double Efficiency() const;
};

struct OpProfile {
  uint64_t dispatches = 0;
  uint64_t bytes_moved = 0;
  uint64_t items = 0;
};

class Profiler {
 public:
  // The process-wide profiler. On first use it reads O2SR_PROFILE_FILE
  // and, when set, enables itself and registers an at-exit report writer
  // to that path.
  static Profiler& Global();

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // One parallel-region execution that fanned out to workers.
  // `lane_busy_us` has `lanes` entries (lane 0 = caller). `name` may be
  // null for unnamed kernel regions; they aggregate under "(kernel)".
  void RecordDispatchedRegion(const char* name, int64_t items,
                              int64_t chunks, int64_t wall_us,
                              const int64_t* lane_busy_us, int lanes);
  // One region execution that ran inline on the calling thread.
  void RecordInlineRegion(const char* name, int64_t items, int64_t chunks);

  // One op dispatch. Bytes/items may be 0 when the op moves nothing worth
  // accounting.
  void RecordOp(const char* name, uint64_t bytes_moved, uint64_t items);

  std::map<std::string, RegionProfile> RegionSnapshot() const;
  std::map<std::string, OpProfile> OpSnapshot() const;

  // The attribution report: {"regions":{name:{...}},"ops":{name:{...}}},
  // keys sorted, counts as integers, times as fixed 3-decimal
  // milliseconds. Deterministic key set and count values for a
  // deterministic workload.
  std::string ReportJson() const;
  common::Status WriteReport(const std::string& path) const;

  // Drops all accumulated data (keeps the enabled flag); tests only.
  void ResetForTest();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, RegionProfile> regions_;
  std::map<std::string, OpProfile> ops_;
};

// Convenience for op record sites: evaluates the arguments only when the
// profiler is on.
#define O2SR_PROFILE_OP(name, bytes_moved, items)                      \
  do {                                                                 \
    ::o2sr::obs::Profiler& o2sr_profiler_ =                            \
        ::o2sr::obs::Profiler::Global();                               \
    if (o2sr_profiler_.enabled()) {                                    \
      o2sr_profiler_.RecordOp((name), (bytes_moved), (items));         \
    }                                                                  \
  } while (0)

}  // namespace o2sr::obs

#endif  // O2SR_OBS_PROFILER_H_
