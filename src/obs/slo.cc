#include "obs/slo.h"

#include <algorithm>

#include "obs/json.h"
#include "obs/metrics.h"

namespace o2sr::obs {

namespace {

// Nearest-rank quantile over an ascending-sorted vector.
double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted[rank];
}

}  // namespace

std::string SloSnapshot::ToJson() const {
  std::string out = "{";
  out += "\"slo_ms\":" + JsonFixed(config.slo_ms, 3);
  out += ",\"target\":" + JsonFixed(config.target, 4);
  out += ",\"window\":" + JsonNum(static_cast<uint64_t>(config.window));
  out += ",\"requests\":" + JsonNum(requests);
  out += ",\"bad\":" + JsonNum(bad);
  out += ",\"shed\":" + JsonNum(shed);
  out += ",\"deadline_miss\":" + JsonNum(deadline_miss);
  out += ",\"degraded\":" + JsonNum(degraded);
  out += ",\"window_count\":" + JsonNum(static_cast<uint64_t>(window_count));
  out += ",\"window_bad\":" + JsonNum(window_bad);
  out += ",\"window_shed\":" + JsonNum(window_shed);
  out += ",\"window_deadline_miss\":" + JsonNum(window_deadline_miss);
  out += ",\"window_degraded\":" + JsonNum(window_degraded);
  out += ",\"p50_ms\":" + JsonFixed(p50_ms, 3);
  out += ",\"p90_ms\":" + JsonFixed(p90_ms, 3);
  out += ",\"p99_ms\":" + JsonFixed(p99_ms, 3);
  out += ",\"max_ms\":" + JsonFixed(max_ms, 3);
  out += ",\"bad_fraction\":" + JsonFixed(bad_fraction, 4);
  out += ",\"burn_rate\":" + JsonFixed(burn_rate, 4);
  out += std::string(",\"breached\":") + (breached ? "true" : "false");
  out += "}";
  return out;
}

SloMonitor::SloMonitor(const SloConfig& config,
                       const std::string& metrics_prefix)
    : config_([&] {
        SloConfig c = config;
        if (!(c.slo_ms > 0.0)) c.slo_ms = 50.0;
        if (!(c.target > 0.0) || !(c.target < 1.0)) c.target = 0.99;
        if (c.window == 0) c.window = 512;
        return c;
      }()) {
  window_.resize(config_.window);
  if (!metrics_prefix.empty()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    burn_rate_gauge_ = registry.GetGauge(metrics_prefix + ".burn_rate");
    bad_fraction_gauge_ =
        registry.GetGauge(metrics_prefix + ".bad_fraction");
    breached_gauge_ = registry.GetGauge(metrics_prefix + ".breached");
  }
}

double SloMonitor::WindowBadFractionLocked() const {
  if (window_count_ == 0) return 0.0;
  uint64_t bad = 0;
  for (size_t i = 0; i < window_count_; ++i) {
    if (window_[i].bad) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(window_count_);
}

void SloMonitor::Record(const SloOutcome& outcome) {
  double bad_fraction = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry;
    entry.latency_ms = outcome.latency_ms;
    entry.shed = outcome.shed;
    entry.deadline_miss = outcome.deadline_miss;
    entry.degraded = outcome.degraded;
    entry.bad = outcome.shed || outcome.deadline_miss || outcome.degraded ||
                outcome.latency_ms > config_.slo_ms;
    window_[next_slot_] = entry;
    next_slot_ = (next_slot_ + 1) % window_.size();
    window_count_ = std::min(window_count_ + 1, window_.size());
    ++requests_;
    if (entry.bad) ++bad_;
    if (entry.shed) ++shed_;
    if (entry.deadline_miss) ++deadline_miss_;
    if (entry.degraded) ++degraded_;
    bad_fraction = WindowBadFractionLocked();
  }
  if (burn_rate_gauge_ != nullptr) {
    const double burn = bad_fraction / (1.0 - config_.target);
    burn_rate_gauge_->Set(burn);
    bad_fraction_gauge_->Set(bad_fraction);
    breached_gauge_->Set(burn >= 1.0 ? 1.0 : 0.0);
  }
}

SloSnapshot SloMonitor::Snapshot() const {
  SloSnapshot snap;
  snap.config = config_;
  std::vector<double> latencies;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.requests = requests_;
    snap.bad = bad_;
    snap.shed = shed_;
    snap.deadline_miss = deadline_miss_;
    snap.degraded = degraded_;
    snap.window_count = window_count_;
    latencies.reserve(window_count_);
    for (size_t i = 0; i < window_count_; ++i) {
      const Entry& entry = window_[i];
      latencies.push_back(entry.latency_ms);
      if (entry.bad) ++snap.window_bad;
      if (entry.shed) ++snap.window_shed;
      if (entry.deadline_miss) ++snap.window_deadline_miss;
      if (entry.degraded) ++snap.window_degraded;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  snap.p50_ms = QuantileSorted(latencies, 0.50);
  snap.p90_ms = QuantileSorted(latencies, 0.90);
  snap.p99_ms = QuantileSorted(latencies, 0.99);
  snap.max_ms = latencies.empty() ? 0.0 : latencies.back();
  if (snap.window_count > 0) {
    snap.bad_fraction = static_cast<double>(snap.window_bad) /
                        static_cast<double>(snap.window_count);
  }
  snap.burn_rate = snap.bad_fraction / (1.0 - config_.target);
  snap.breached = snap.burn_rate >= 1.0;
  return snap;
}

}  // namespace o2sr::obs
