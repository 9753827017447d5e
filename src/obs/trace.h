#ifndef O2SR_OBS_TRACE_H_
#define O2SR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace o2sr::obs {

// Scoped-timer tracing. Call sites mark a region with
//
//   O2SR_TRACE_SCOPE("train.epoch");
//
// and the enclosing scope becomes a span in the global recorder. Spans
// nest: the recorder tracks the open-span stack, so the export preserves
// the call-tree structure. The recorder is always on (an in-memory span of
// a coarse region costs two clock reads and one short critical section;
// the instrumented regions are epoch- and stage-sized, so the overhead is
// well under the 3% budget — see DESIGN.md §7).
//
// Exports:
//  * Chrome trace_event JSON (chrome://tracing, Perfetto) — written to
//    $O2SR_TRACE_FILE at process exit when that variable is set, or
//    explicitly via WriteChromeTrace.
//  * StageMillis() — wall-clock totals aggregated by span name, used by
//    the bench reports for per-stage timing cells.
//
// Spans are process-global and timed with common::NowMicros, the clock
// that also times profiler regions; recording from multiple
// threads is safe: the span buffer is mutex-protected and nesting depth is
// tracked per thread, so spans opened on exec::ThreadPool workers (parallel
// regions, bench seed replicas) nest correctly within their own thread.
// The Chrome export tags each span with a small per-thread id.

struct TraceSpan {
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = -1;  // -1 while the span is still open
  int depth = 0;        // 0 = root of its nesting tree (per thread)
  int tid = 0;          // small per-thread id, first-use order
};

class TraceRecorder {
 public:
  // Microsecond clock; injectable so tests get deterministic timestamps.
  using Clock = std::function<int64_t()>;

  TraceRecorder();                       // common::NowMicros
  explicit TraceRecorder(Clock clock);   // test clock

  // The process-wide recorder used by O2SR_TRACE_SCOPE. On first use it
  // reads O2SR_TRACE_FILE and, when set, registers an at-exit Chrome-trace
  // writer to that path.
  static TraceRecorder& Global();

  // Spans recorded after SetRecording(false) are dropped (the macro still
  // costs one atomic load). Recording defaults to on.
  void SetRecording(bool recording) {
    recording_.store(recording, std::memory_order_relaxed);
  }
  bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  // Begins a span; returns its handle, or -1 when not recording / at the
  // span cap. Prefer O2SR_TRACE_SCOPE over calling these directly.
  int64_t Begin(const char* name);
  void End(int64_t handle);

  size_t span_count() const;
  uint64_t dropped_spans() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::vector<TraceSpan> Snapshot() const;
  void Clear();

  // Wall-clock milliseconds summed per span name (every depth by default;
  // nested spans overlap their parents, so totals of different names are
  // not additive). Open spans count up to `now`. Restrict with max_depth
  // to aggregate only the top of the tree.
  std::map<std::string, double> StageMillis(int max_depth = 1 << 30) const;

  // {"displayTimeUnit":"ms","traceEvents":[{"name":..,"cat":"o2sr",
  //  "ph":"X","ts":..,"dur":..,"pid":0,"tid":0},...]} — spans in recording
  //  order; open spans are closed at the current clock value.
  std::string ExportChromeTraceJson() const;
  common::Status WriteChromeTrace(const std::string& path) const;

 private:
  Clock clock_;
  std::atomic<bool> recording_{true};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
  // Keep the span buffer bounded; a long-running process should not grow
  // without limit. Coarse-grained spans never come close to this.
  static constexpr size_t kMaxSpans = 1 << 20;
};

// RAII span over the enclosing scope.
class ScopedTrace {
 public:
  explicit ScopedTrace(const char* name,
                       TraceRecorder* recorder = &TraceRecorder::Global())
      : recorder_(recorder), handle_(recorder->Begin(name)) {}
  ~ScopedTrace() {
    if (handle_ >= 0) recorder_->End(handle_);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceRecorder* recorder_;
  int64_t handle_;
};

}  // namespace o2sr::obs

#define O2SR_TRACE_CONCAT_INNER_(a, b) a##b
#define O2SR_TRACE_CONCAT_(a, b) O2SR_TRACE_CONCAT_INNER_(a, b)
#define O2SR_TRACE_SCOPE(name) \
  ::o2sr::obs::ScopedTrace O2SR_TRACE_CONCAT_(o2sr_trace_scope_, __LINE__)( \
      name)

#endif  // O2SR_OBS_TRACE_H_
