#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/env.h"
#include "obs/json.h"

namespace o2sr::obs {

namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nesting depth is a per-thread property: a worker's span tree is
// independent of the caller's. The tid is a small dense id assigned in
// first-use order, stable for the thread's lifetime.
thread_local int tls_trace_depth = 0;

int ThisThreadTraceId() {
  static std::atomic<int> next_tid{0};
  thread_local int tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

TraceRecorder::TraceRecorder() : clock_(&SteadyNowMicros) {}

TraceRecorder::TraceRecorder(Clock clock) : clock_(std::move(clock)) {
  O2SR_CHECK(clock_ != nullptr);
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = [] {
    auto* r = new TraceRecorder();
    if (!common::EnvString(common::Knob::kTraceFile).empty()) {
      std::atexit([] {
        const std::string path = common::EnvString(common::Knob::kTraceFile);
        if (path.empty()) return;
        const common::Status st = Global().WriteChromeTrace(path);
        if (!st.ok()) {
          std::fprintf(stderr, "[W trace.cc] %s\n", st.ToString().c_str());
        }
      });
    }
    return r;
  }();
  return *recorder;
}

int64_t TraceRecorder::Begin(const char* name) {
  if (!recording()) return -1;
  const int64_t now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  TraceSpan span;
  span.name = name;
  span.start_us = now;
  span.depth = tls_trace_depth;
  span.tid = ThisThreadTraceId();
  ++tls_trace_depth;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void TraceRecorder::End(int64_t handle) {
  const int64_t now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  O2SR_CHECK(handle >= 0 &&
             handle < static_cast<int64_t>(spans_.size()));
  TraceSpan& span = spans_[static_cast<size_t>(handle)];
  if (span.dur_us < 0) {
    span.dur_us = now - span.start_us;
    --tls_trace_depth;
  }
}

void TraceRecorder::RecordCounter(const char* name, double value) {
  if (!recording()) return;
  const int64_t now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  if (counters_.size() >= kMaxCounters) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceCounterEvent event;
  event.name = name;
  event.ts_us = now;
  event.value = value;
  event.tid = ThisThreadTraceId();
  counters_.push_back(std::move(event));
}

size_t TraceRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<TraceSpan> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<TraceCounterEvent> TraceRecorder::CounterSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  counters_.clear();
  tls_trace_depth = 0;  // only the calling thread can have open spans here
  dropped_.store(0, std::memory_order_relaxed);
}

std::map<std::string, double> TraceRecorder::StageMillis(
    int max_depth) const {
  const int64_t now = clock_();
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TraceSpan& span : spans_) {
    if (span.depth > max_depth) continue;
    const int64_t dur = span.dur_us >= 0 ? span.dur_us : now - span.start_us;
    out[span.name] += static_cast<double>(dur) / 1000.0;
  }
  return out;
}

std::string TraceRecorder::ExportChromeTraceJson() const {
  const int64_t now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans_) {
    const int64_t dur =
        span.dur_us >= 0 ? span.dur_us : now - span.start_us;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + JsonQuote(span.name) +
           ",\"cat\":\"o2sr\",\"ph\":\"X\",\"ts\":" + JsonNum(span.start_us) +
           ",\"dur\":" + JsonNum(dur) + ",\"pid\":0,\"tid\":" +
           JsonNum(static_cast<int64_t>(span.tid)) + "}";
  }
  for (const TraceCounterEvent& counter : counters_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + JsonQuote(counter.name) +
           ",\"cat\":\"o2sr\",\"ph\":\"C\",\"ts\":" + JsonNum(counter.ts_us) +
           ",\"pid\":0,\"tid\":" + JsonNum(static_cast<int64_t>(counter.tid)) +
           ",\"args\":{\"value\":" + JsonNum(counter.value) + "}}";
  }
  out += "]}";
  return out;
}

common::Status TraceRecorder::WriteChromeTrace(
    const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return common::UnavailableError("cannot open trace file '" + path +
                                    "' for writing");
  }
  const std::string json = ExportChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return common::UnavailableError("short write to trace file '" + path +
                                    "'");
  }
  return common::Status::Ok();
}

}  // namespace o2sr::obs
