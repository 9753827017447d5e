// Tests of the serving SLO monitor (obs/slo.h): bad-request
// classification, burn-rate math, rolling-window eviction, deterministic
// nearest-rank quantiles, gauge export and the JSON snapshot shape. The
// O2SR_SERVE_SLO_* knobs are resolved by the serving engine (serve_test).

#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace o2sr::obs {
namespace {

SloOutcome Ok(double latency_ms) {
  SloOutcome o;
  o.latency_ms = latency_ms;
  return o;
}

TEST(SloMonitorTest, ClassifiesBadRequests) {
  SloConfig cfg;
  cfg.slo_ms = 10.0;
  cfg.target = 0.9;
  SloMonitor monitor(cfg);

  monitor.Record(Ok(1.0));                       // good
  monitor.Record(Ok(11.0));                      // over the objective
  SloOutcome shed = Ok(0.5);
  shed.shed = true;
  monitor.Record(shed);                          // bad: shed
  SloOutcome missed = Ok(2.0);
  missed.deadline_miss = true;
  monitor.Record(missed);                        // bad: deadline
  SloOutcome degraded = Ok(3.0);
  degraded.degraded = true;
  monitor.Record(degraded);                      // bad: stale tier

  const SloSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.requests, 5u);
  EXPECT_EQ(snap.bad, 4u);
  EXPECT_EQ(snap.shed, 1u);
  EXPECT_EQ(snap.deadline_miss, 1u);
  EXPECT_EQ(snap.degraded, 1u);
  EXPECT_EQ(snap.window_count, 5u);
  EXPECT_DOUBLE_EQ(snap.bad_fraction, 0.8);
  // burn = 0.8 / (1 - 0.9) = 8: the budget burns 8x too fast.
  EXPECT_DOUBLE_EQ(snap.burn_rate, 8.0);
  EXPECT_TRUE(snap.breached);
}

TEST(SloMonitorTest, BurnRateBelowOneIsNotBreached) {
  SloConfig cfg;
  cfg.slo_ms = 10.0;
  cfg.target = 0.9;  // 10% error budget
  SloMonitor monitor(cfg);
  for (int i = 0; i < 99; ++i) monitor.Record(Ok(1.0));
  monitor.Record(Ok(50.0));  // 1 bad in 100 = half the budget
  const SloSnapshot snap = monitor.Snapshot();
  EXPECT_DOUBLE_EQ(snap.bad_fraction, 0.01);
  EXPECT_NEAR(snap.burn_rate, 0.1, 1e-9);
  EXPECT_FALSE(snap.breached);
}

TEST(SloMonitorTest, WindowEvictsOldRequests) {
  SloConfig cfg;
  cfg.slo_ms = 10.0;
  cfg.window = 4;
  SloMonitor monitor(cfg);
  // Two bad then six good: the ring only remembers the last four.
  monitor.Record(Ok(100.0));
  monitor.Record(Ok(100.0));
  for (int i = 0; i < 6; ++i) monitor.Record(Ok(1.0));

  const SloSnapshot snap = monitor.Snapshot();
  EXPECT_EQ(snap.requests, 8u);   // lifetime keeps everything
  EXPECT_EQ(snap.bad, 2u);
  EXPECT_EQ(snap.window_count, 4u);
  EXPECT_EQ(snap.window_bad, 0u);  // the bad ones aged out
  EXPECT_DOUBLE_EQ(snap.bad_fraction, 0.0);
  EXPECT_DOUBLE_EQ(snap.burn_rate, 0.0);
  EXPECT_FALSE(snap.breached);
}

TEST(SloMonitorTest, NearestRankQuantilesAreExact) {
  SloConfig cfg;
  cfg.slo_ms = 1000.0;
  SloMonitor monitor(cfg);
  // 1..100 in shuffled-ish order; nearest rank over the sorted window.
  for (int i = 0; i < 100; ++i) {
    monitor.Record(Ok(static_cast<double>((i * 37) % 100 + 1)));
  }
  const SloSnapshot snap = monitor.Snapshot();
  EXPECT_DOUBLE_EQ(snap.p50_ms, 51.0);
  EXPECT_DOUBLE_EQ(snap.p90_ms, 91.0);
  EXPECT_DOUBLE_EQ(snap.p99_ms, 100.0);
  EXPECT_DOUBLE_EQ(snap.max_ms, 100.0);
}

TEST(SloMonitorTest, SingleAndEmptyWindows) {
  SloMonitor empty{SloConfig{}};
  const SloSnapshot none = empty.Snapshot();
  EXPECT_EQ(none.window_count, 0u);
  EXPECT_DOUBLE_EQ(none.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(none.burn_rate, 0.0);
  EXPECT_FALSE(none.breached);

  SloMonitor one{SloConfig{}};
  one.Record(Ok(7.0));
  const SloSnapshot single = one.Snapshot();
  EXPECT_DOUBLE_EQ(single.p50_ms, 7.0);
  EXPECT_DOUBLE_EQ(single.p99_ms, 7.0);
  EXPECT_DOUBLE_EQ(single.max_ms, 7.0);
}

TEST(SloMonitorTest, GaugesTrackTheWindow) {
  SloConfig cfg;
  cfg.slo_ms = 10.0;
  cfg.target = 0.5;  // big budget so burn stays small
  SloMonitor monitor(cfg, "slo_test.gauges");
  monitor.Record(Ok(1.0));
  monitor.Record(Ok(100.0));

  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetGauge("slo_test.gauges.bad_fraction")->value(),
                   0.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("slo_test.gauges.burn_rate")->value(),
                   1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("slo_test.gauges.breached")->value(),
                   1.0);
}

TEST(SloMonitorTest, InvalidConfigClampsToDefaults) {
  SloConfig bad;
  bad.slo_ms = -1.0;
  bad.target = 2.0;
  bad.window = 0;
  SloMonitor monitor(bad);
  EXPECT_DOUBLE_EQ(monitor.config().slo_ms, 50.0);
  EXPECT_DOUBLE_EQ(monitor.config().target, 0.99);
  EXPECT_GT(monitor.config().window, 0u);
}

TEST(SloSnapshotTest, ToJsonIsParseableAndFixedPrecision) {
  SloConfig cfg;
  cfg.slo_ms = 10.0;
  cfg.target = 0.9;
  SloMonitor monitor(cfg);
  monitor.Record(Ok(1.25));
  monitor.Record(Ok(100.0));
  const SloSnapshot snap = monitor.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_EQ(json, monitor.Snapshot().ToJson());  // deterministic

  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << json;
  EXPECT_DOUBLE_EQ(parsed->NumberOr("slo_ms", 0), 10.0);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("target", 0), 0.9);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("requests", 0), 2.0);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("bad", -1), 1.0);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("bad_fraction", 0), 0.5);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("burn_rate", 0), 5.0);
  ASSERT_NE(parsed->Find("breached"), nullptr);
  EXPECT_TRUE(parsed->Find("breached")->bool_value());
  EXPECT_DOUBLE_EQ(parsed->NumberOr("max_ms", 0), 100.0);
}

}  // namespace
}  // namespace o2sr::obs
