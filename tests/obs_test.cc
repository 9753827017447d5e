// Unit tests of the observability library: JSON formatting helpers,
// counter/gauge/histogram semantics, deterministic trace export with an
// injected clock, and logger level filtering.

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace o2sr::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON helpers

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonQuote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(JsonTest, NumShortestRoundTrip) {
  EXPECT_EQ(JsonNum(0.0), "0");
  EXPECT_EQ(JsonNum(3.0), "3");
  EXPECT_EQ(JsonNum(0.25), "0.25");
  EXPECT_EQ(JsonNum(int64_t{-17}), "-17");
  EXPECT_EQ(JsonNum(uint64_t{17}), "17");
  // Round trip: parsing the printed text recovers the exact double.
  const double value = 0.1 + 0.2;
  EXPECT_EQ(std::stod(JsonNum(value)), value);
}

TEST(JsonTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonNum(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNum(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNum(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, FixedPrecisionIsExactText) {
  // The whole point of JsonFixed: the text is the rounded decimal, not the
  // shortest round-trip ("265.074", never "265.07399999999996").
  EXPECT_EQ(JsonFixed(265.07399999999996, 3), "265.074");
  EXPECT_EQ(JsonFixed(0.0, 3), "0.000");
  EXPECT_EQ(JsonFixed(-1.23456, 2), "-1.23");
  EXPECT_EQ(JsonFixed(2.5, 0), "2");  // %.0f banker's-free rounding via libc
  EXPECT_EQ(JsonFixed(std::numeric_limits<double>::quiet_NaN(), 3), "null");
  EXPECT_EQ(JsonFixed(std::numeric_limits<double>::infinity(), 3), "null");
  // Decimals outside [0, 17] clamp instead of corrupting the format string.
  EXPECT_EQ(JsonFixed(1.5, -4), "2");
}

// ---------------------------------------------------------------------------
// JSON parser (the read side of the exporters)

TEST(JsonParseTest, RoundTripsOwnExporterOutput) {
  const std::string text =
      "{\"name\":\"bench\",\"n\":3,\"pi\":3.25,\"ok\":true,\"missing\":null,"
      "\"list\":[1,2,3],\"nested\":{\"a\":-1e2}}";
  const auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.StringOr("name", ""), "bench");
  EXPECT_DOUBLE_EQ(v.NumberOr("n", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(v.NumberOr("pi", 0.0), 3.25);
  ASSERT_NE(v.Find("ok"), nullptr);
  EXPECT_TRUE(v.Find("ok")->bool_value());
  EXPECT_TRUE(v.Find("missing")->is_null());
  ASSERT_TRUE(v.Find("list")->is_array());
  EXPECT_EQ(v.Find("list")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("nested")->NumberOr("a", 0.0), -100.0);
  // Member order is source order.
  EXPECT_EQ(v.members().front().first, "name");
}

TEST(JsonParseTest, EscapesAndUnicodeDecode) {
  const auto parsed = ParseJson("\"a\\\"b\\\\c\\n\\u0041\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->string_value(), "a\"b\\c\nA");
}

TEST(JsonParseTest, MalformedInputsAreInvalidArgument) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1} trailing", "[1 2]", "{'single':1}"}) {
    const auto parsed = ParseJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), common::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(JsonParseTest, RejectsPathologicalNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonParseTest, MissingFileIsAnError) {
  const auto parsed = ParseJsonFile("/nonexistent/bench.json");
  EXPECT_FALSE(parsed.ok());
}

// ---------------------------------------------------------------------------
// Counter / gauge

TEST(MetricsTest, CounterAccumulates) {
  Counter c("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, GaugeHoldsLastValue) {
  Gauge g("test.gauge");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(MetricsTest, RegistryReturnsSamePointerForSameName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketCountsFollowUpperEdges) {
  Histogram h("h", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.Observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  // Edges are inclusive: 1.0 lands in the first bucket; 100 overflows.
  const std::vector<uint64_t> expected = {2, 1, 1, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram h("h", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.Observe(5.0);   // bucket [0, 10]
  for (int i = 0; i < 10; ++i) h.Observe(15.0);  // bucket (10, 20]
  // p50 sits exactly at the first bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  // p75 is halfway through the second bucket: 10 + (20-10) * 0.5.
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
}

TEST(HistogramTest, OverflowReportsLastFiniteEdge) {
  Histogram h("h", {1.0, 2.0});
  h.Observe(50.0);
  h.Observe(60.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  Histogram h("h", {1.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, KnownUniformDistributionPercentiles) {
  // 1..1000 uniformly against decade-aligned edges: with interpolation the
  // quantile of a uniform stream should track the true percentile to within
  // one bucket's width.
  std::vector<double> edges;
  for (double e = 10.0; e <= 1000.0; e += 10.0) edges.push_back(e);
  Histogram h("h", edges);
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  EXPECT_NEAR(h.Quantile(0.50), 500.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.90), 900.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, SingleSampleAllQuantilesInItsBucket) {
  Histogram h("h", {1.0, 2.0, 4.0});
  h.Observe(1.7);
  EXPECT_EQ(h.count(), 1u);
  // q=0 sits on the bucket's lower edge; everything else interpolates
  // inside (1, 2].
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, 1.0) << "q=" << q;
    EXPECT_LE(v, 2.0) << "q=" << q;
  }
}

TEST(HistogramTest, ConcurrentAppendsMatchSequentialResult) {
  // Bucket counts are a commutative sum, so racing writers must land on
  // the same histogram a single thread would produce — quantiles included.
  const std::vector<double> edges = {1.0, 2.0, 4.0, 8.0, 16.0};
  Histogram sequential("seq", edges);
  Histogram concurrent("conc", edges);
  const int kThreads = 8, kPerThread = 2000;
  // Exact binary fractions (multiples of 1/8) keep the mutex-ordered sum
  // independent of interleaving: every partial sum is exact.
  auto value_of = [](int t, int i) {
    return 0.5 + static_cast<double>((t * 31 + i * 7) % 160) * 0.125;
  };
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) sequential.Observe(value_of(t, i));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        concurrent.Observe(value_of(t, i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(concurrent.count(), sequential.count());
  EXPECT_DOUBLE_EQ(concurrent.sum(), sequential.sum());
  EXPECT_EQ(concurrent.bucket_counts(), sequential.bucket_counts());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(concurrent.Quantile(q), sequential.Quantile(q));
  }
}

TEST(MetricsTest, DumpsAreDeterministicAndSorted) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Increment(2);
  registry.GetCounter("a.counter")->Increment(1);
  registry.GetGauge("z.gauge")->Set(0.5);
  registry.GetHistogram("m.hist", {1.0, 2.0})->Observe(1.5);

  const std::string json = registry.DumpJson();
  EXPECT_EQ(json,
            "{\"counters\":{\"a.counter\":1,\"b.counter\":2},"
            "\"gauges\":{\"z.gauge\":0.5},"
            "\"histograms\":{\"m.hist\":{\"count\":1,\"sum\":1.5,"
            "\"p50\":1.5,\"p95\":1.95,\"p99\":1.99}}}");
  // Text dump: sorted, one instrument per line.
  std::ostringstream text;
  registry.DumpText(text);
  const std::string dump = text.str();
  EXPECT_LT(dump.find("a.counter"), dump.find("b.counter"));
  EXPECT_NE(dump.find("counter a.counter 1"), std::string::npos) << dump;
}

// ---------------------------------------------------------------------------
// Trace recorder (injected clock -> byte-exact export)

TEST(TraceTest, NestedSpansExportDeterministicChromeTrace) {
  int64_t now = 0;
  TraceRecorder recorder([&now] { return now; });

  const int64_t outer = recorder.Begin("outer");
  now = 10;
  const int64_t inner = recorder.Begin("inner");
  now = 30;
  recorder.End(inner);
  now = 100;
  recorder.End(outer);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].depth, 1);

  EXPECT_EQ(recorder.ExportChromeTraceJson(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"outer\",\"cat\":\"o2sr\",\"ph\":\"X\",\"ts\":0,"
            "\"dur\":100,\"pid\":0,\"tid\":0},"
            "{\"name\":\"inner\",\"cat\":\"o2sr\",\"ph\":\"X\",\"ts\":10,"
            "\"dur\":20,\"pid\":0,\"tid\":0}]}");
}

TEST(TraceTest, StageMillisAggregatesByName) {
  int64_t now = 0;
  TraceRecorder recorder([&now] { return now; });
  for (int i = 0; i < 3; ++i) {
    const int64_t h = recorder.Begin("stage");
    now += 2000;  // 2 ms each
    recorder.End(h);
  }
  const auto stages = recorder.StageMillis();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_DOUBLE_EQ(stages.at("stage"), 6.0);
}

TEST(TraceTest, OpenSpansAreClosedAtExportTime) {
  int64_t now = 0;
  TraceRecorder recorder([&now] { return now; });
  recorder.Begin("open");
  now = 5000;
  EXPECT_DOUBLE_EQ(recorder.StageMillis().at("open"), 5.0);
  EXPECT_NE(recorder.ExportChromeTraceJson().find("\"dur\":5000"),
            std::string::npos);
}

TEST(TraceTest, ScopedTraceRecordsOnDestruction) {
  int64_t now = 0;
  TraceRecorder recorder([&now] { return now; });
  {
    ScopedTrace scope("scoped", &recorder);
    now = 42;
  }
  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "scoped");
  EXPECT_EQ(spans[0].dur_us, 42);
}

TEST(TraceTest, RecordingOffDropsSpans) {
  int64_t now = 0;
  TraceRecorder recorder([&now] { return now; });
  recorder.SetRecording(false);
  { ScopedTrace scope("dropped", &recorder); }
  EXPECT_EQ(recorder.span_count(), 0u);
  recorder.SetRecording(true);
  { ScopedTrace scope("kept", &recorder); }
  EXPECT_EQ(recorder.span_count(), 1u);
}

TEST(TraceTest, CounterEventsExportAfterSpans) {
  int64_t now = 0;
  TraceRecorder recorder([&now] { return now; });
  const int64_t outer = recorder.Begin("outer");
  now = 10;
  const int64_t inner = recorder.Begin("inner");
  now = 20;
  recorder.End(inner);
  recorder.End(outer);

  // The parser must accept our own export (the trace validation in ci.sh
  // depends on this), and every event is a complete span.
  const auto parsed = ParseJson(recorder.ExportChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items().size(), 2u);
  for (const JsonValue& event : events->items()) {
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    EXPECT_EQ(event.Find("ph")->string_value(), "X");
  }
}

TEST(TraceTest, RecordingOffDropsCountersAndClearResets) {
  int64_t now = 0;
  TraceRecorder recorder([&now] { return now; });
  { ScopedTrace scope("kept", &recorder); }
  EXPECT_EQ(recorder.span_count(), 1u);
  recorder.Clear();
  EXPECT_EQ(recorder.span_count(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_TRUE(recorder.StageMillis().empty());
}

// ---------------------------------------------------------------------------
// Logger

struct CapturedLog {
  LogLevel level;
  std::string file;
  int line;
  std::string message;
};

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = MinLogLevel();
    SetLogSink([this](LogLevel level, const std::string& file, int line,
                      const std::string& message) {
      captured_.push_back({level, file, line, message});
    });
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetMinLogLevel(saved_level_);
  }

  std::vector<CapturedLog> captured_;
  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_F(LogTest, LevelThresholdFilters) {
  SetMinLogLevel(LogLevel::kWarning);
  O2SR_LOG(DEBUG) << "debug";
  O2SR_LOG(INFO) << "info";
  O2SR_LOG(WARNING) << "warning";
  O2SR_LOG(ERROR) << "error";
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_EQ(captured_[0].level, LogLevel::kWarning);
  EXPECT_EQ(captured_[0].message, "warning");
  EXPECT_EQ(captured_[1].level, LogLevel::kError);
}

TEST_F(LogTest, SuppressedStreamIsNotEvaluated) {
  SetMinLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return "expensive";
  };
  O2SR_LOG(INFO) << expensive();
  EXPECT_EQ(evaluations, 0);
  O2SR_LOG(ERROR) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, SinkReceivesBasenameAndLine) {
  SetMinLogLevel(LogLevel::kInfo);
  O2SR_LOG(INFO) << "here";
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].file, "obs_test.cc");
  EXPECT_GT(captured_[0].line, 0);
}

TEST_F(LogTest, OffLevelEmitsNothing) {
  SetMinLogLevel(LogLevel::kOff);
  O2SR_LOG(ERROR) << "nope";
  EXPECT_TRUE(captured_.empty());
}

TEST(LogLevelTest, ParseAndNameRoundTrip) {
  // The logger casts the O2SR_LOG_LEVEL choice index to LogLevel, so the
  // choice list must name the levels in enum order.
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                         LogLevel::kWarning, LogLevel::kError,
                         LogLevel::kOff}) {
    ::setenv("O2SR_LOG_LEVEL", LogLevelName(level), 1);
    EXPECT_EQ(common::EnvChoice(common::Knob::kLogLevel),
              static_cast<int>(level));
  }
  ::unsetenv("O2SR_LOG_LEVEL");
}

}  // namespace
}  // namespace o2sr::obs
