#ifndef O2SR_OBS_METRICS_H_
#define O2SR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace o2sr::obs {

// Process-wide metrics: named counters, gauges, and fixed-bucket
// histograms. Instruments register lazily by name and live for the process
// lifetime, so call sites can cache the pointer:
//
//   static Counter* orders = MetricsRegistry::Global().GetCounter(
//       "sim.orders_generated");
//   orders->Increment(n);
//
// Dumps are deterministic: instruments sort by name, numbers format
// identically across runs (see obs/json.h). All operations are
// thread-safe; the hot paths (Increment/Set/Observe) take no registry-wide
// lock.

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. `bounds` are the inclusive upper edges of the
// finite buckets; one implicit overflow bucket catches everything above
// the last edge. Quantiles interpolate linearly inside the containing
// bucket (the overflow bucket reports the last finite edge), which is
// exact enough for latency-style distributions and needs no per-sample
// storage.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const;
  double sum() const;
  // q in [0, 1]; 0 with no observations.
  double Quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<uint64_t> bucket_counts() const;
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Default histogram edges for millisecond timings: 0.1 ms .. 60 s,
// roughly 1-2.5-5 per decade.
const std::vector<double>& DefaultLatencyBucketsMs();

// Makes an externally-supplied label (a tenant/city name, a file stem)
// safe to embed in a dotted metric name: [A-Za-z0-9_-] pass through,
// everything else becomes '_', and an empty input reads "unnamed". Keeps
// DumpJson/DumpText keys printable and dot-structured regardless of what
// callers name their tenants.
std::string SanitizeMetricLabel(const std::string& label);

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Lazily creates the instrument; returns the same pointer for the same
  // name forever after. A name may hold only one instrument kind
  // (registering "x" as both a counter and a gauge is a programmer error).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  // One instrument per line, sorted by name:
  //   counter sim.orders_generated 128341
  //   histogram serve.rank_latency_ms count=30 sum=51.2 p50=1.6 p95=1.9 p99=2.0
  void DumpText(std::ostream& os) const;
  // {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
  //  "sum":..,"p50":..,"p95":..,"p99":..}}} — keys sorted.
  std::string DumpJson() const;
  common::Status WriteJson(const std::string& path) const;

  // Drops every instrument (invalidates cached pointers); tests only.
  void ResetForTest();

  MetricsRegistry() = default;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace o2sr::obs

#endif  // O2SR_OBS_METRICS_H_
