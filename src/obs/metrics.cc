#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/env.h"
#include "obs/json.h"

namespace o2sr::obs {

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  O2SR_CHECK(!bounds_.empty());
  O2SR_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_[bucket];
  ++count_;
  sum_ += value;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

double Histogram::Quantile(double q) const {
  O2SR_CHECK(q >= 0.0 && q <= 1.0);
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      // Overflow bucket has no upper edge: report the last finite one.
      if (i == bounds_.size()) return bounds_.back();
      const double lo = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac =
          (target - cumulative) / static_cast<double>(counts_[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.back();
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double> kBuckets = {
      0.1,  0.25, 0.5,  1.0,   2.5,   5.0,   10.0,   25.0,   50.0,
      100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0};
  return kBuckets;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    if (!common::EnvString(common::Knob::kMetricsFile).empty()) {
      std::atexit([] {
        const std::string path =
            common::EnvString(common::Knob::kMetricsFile);
        if (path.empty()) return;
        const common::Status st = Global().WriteJson(path);
        if (!st.ok()) {
          std::fprintf(stderr, "[W metrics.cc] %s\n", st.ToString().c_str());
        }
      });
    }
    return r;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  O2SR_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  O2SR_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  O2SR_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = DefaultLatencyBucketsMs();
    slot = std::make_unique<Histogram>(name, std::move(bounds));
  }
  return slot.get();
}

void MetricsRegistry::DumpText(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    os << "counter " << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge " << name << " " << JsonNum(g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram " << name << " count=" << h->count()
       << " sum=" << JsonNum(h->sum()) << " p50=" << JsonNum(h->Quantile(0.5))
       << " p95=" << JsonNum(h->Quantile(0.95))
       << " p99=" << JsonNum(h->Quantile(0.99)) << "\n";
  }
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(name) + ":" + JsonNum(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(name) + ":" + JsonNum(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(name) + ":{\"count\":" + JsonNum(h->count()) +
           ",\"sum\":" + JsonNum(h->sum()) +
           ",\"p50\":" + JsonNum(h->Quantile(0.5)) +
           ",\"p95\":" + JsonNum(h->Quantile(0.95)) +
           ",\"p99\":" + JsonNum(h->Quantile(0.99)) + "}";
  }
  out += "}}";
  return out;
}

common::Status MetricsRegistry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return common::UnavailableError("cannot open metrics file '" + path +
                                    "' for writing");
  }
  const std::string json = DumpJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return common::UnavailableError("short write to metrics file '" + path +
                                    "'");
  }
  return common::Status::Ok();
}

std::string SanitizeMetricLabel(const std::string& label) {
  if (label.empty()) return "unnamed";
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace o2sr::obs
