#ifndef O2SR_OBS_SLO_H_
#define O2SR_OBS_SLO_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace o2sr::obs {

class Gauge;

// Serving SLO monitor (DESIGN.md §12).
//
// The objective is availability-style: at least `target` of requests must
// be *good* — served fresh, within their deadline, and under `slo_ms` of
// latency. A request is *bad* when it was shed, missed its deadline, was
// served degraded (below fresh tier), or simply ran longer than the
// objective. The monitor keeps a rolling window of the last `window`
// requests and derives:
//
//   bad_fraction  bad / window_count
//   burn_rate     bad_fraction / (1 - target): 1.0 means the error budget
//                 is being consumed exactly as fast as the SLO allows;
//                 > 1.0 means the objective is being breached.
//
// Latency quantiles (p50/p90/p99/max) are computed over the window with
// the nearest-rank method on the exact recorded values — no bucketing, so
// a deterministic request sequence yields deterministic quantiles.
//
// Thread-safe; Record is a mutex + ring-buffer write, Snapshot copies and
// sorts the window.

struct SloConfig {
  double slo_ms = 50.0;   // per-request latency objective
  double target = 0.99;   // good-request fraction the SLO promises, (0, 1)
  size_t window = 512;    // rolling window size in requests
};

// One finished request as the monitor sees it. A shed request still
// carries the latency of the rejection path.
struct SloOutcome {
  double latency_ms = 0.0;
  bool shed = false;
  bool deadline_miss = false;
  bool degraded = false;
};

struct SloSnapshot {
  SloConfig config;
  // Lifetime totals.
  uint64_t requests = 0;
  uint64_t bad = 0;
  uint64_t shed = 0;
  uint64_t deadline_miss = 0;
  uint64_t degraded = 0;
  // Rolling window.
  size_t window_count = 0;
  uint64_t window_bad = 0;
  uint64_t window_shed = 0;
  uint64_t window_deadline_miss = 0;
  uint64_t window_degraded = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double bad_fraction = 0.0;
  double burn_rate = 0.0;
  bool breached = false;  // burn_rate >= 1

  // Single JSON object; times fixed to 3 decimals, fractions to 4.
  std::string ToJson() const;
};

class SloMonitor {
 public:
  // `metrics_prefix`, when non-empty, registers three gauges updated on
  // every Record: <prefix>.burn_rate, <prefix>.bad_fraction and
  // <prefix>.breached (0/1).
  explicit SloMonitor(const SloConfig& config,
                      const std::string& metrics_prefix = "");
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  const SloConfig& config() const { return config_; }

  void Record(const SloOutcome& outcome);

  SloSnapshot Snapshot() const;

 private:
  struct Entry {
    double latency_ms = 0.0;
    bool bad = false;
    bool shed = false;
    bool deadline_miss = false;
    bool degraded = false;
  };

  // Requires mutex_.
  double WindowBadFractionLocked() const;

  const SloConfig config_;
  Gauge* burn_rate_gauge_ = nullptr;   // null when no prefix
  Gauge* bad_fraction_gauge_ = nullptr;
  Gauge* breached_gauge_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<Entry> window_;  // ring buffer of config_.window entries
  size_t next_slot_ = 0;
  size_t window_count_ = 0;
  uint64_t requests_ = 0;
  uint64_t bad_ = 0;
  uint64_t shed_ = 0;
  uint64_t deadline_miss_ = 0;
  uint64_t degraded_ = 0;
};

}  // namespace o2sr::obs

#endif  // O2SR_OBS_SLO_H_
