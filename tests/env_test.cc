// The O2SR_* knob table (common/env.h): every row keeps the values it read
// as before the table existed, garbage and unknown names are fatal, the
// three hot-path choice knobs refuse words outside their lists, an empty
// file knob writes nothing, and README's env table lists exactly the rows.

#include "common/env.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels/kernels.h"
#include "nn/plan.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace o2sr::common {
namespace {

// What each knob read as before the table existed: unset, one in-range
// value, and the values just below and above its range (nullptr: no range).
// Rows without a default are read with the fallback 7.
struct Case {
  const char* name;
  const char* unset;
  const char* in_range;
  const char* below = nullptr;
  const char* below_reads = nullptr;
  const char* above = nullptr;
  const char* above_reads = nullptr;
};

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {"O2SR_THREADS", "0", "3", "-1", "0", "257", "256"},
      {"O2SR_BENCH_SCALE", "standard", "paper"},
      {"O2SR_DATA_DIR", "o2sr_data", "shards"},
      {"O2SR_MEM_BUDGET_MB", "2048", "512", "63", "64", "1048577", "1048576"},
      {"O2SR_LOG_LEVEL", "info", "warning"},
      {"O2SR_TRACE_FILE", "", "trace.json"},
      {"O2SR_METRICS_FILE", "", "metrics.json"},
      {"O2SR_PROFILE_FILE", "", "profile.json"},
      {"O2SR_SERVE_CACHE", "65536", "123", "-4", "0", "1099511627777",
       "1099511627776"},
      {"O2SR_SERVE_DEADLINE_MS", "0", "12.5", "-2e12", "-1e+12", "2e12",
       "1e+12"},
      {"O2SR_SERVE_MAX_INFLIGHT", "0", "64", "-1", "0", "1099511627777",
       "1099511627776"},
      {"O2SR_SERVE_SHARDS", "7", "4", "0", "1", "65", "64"},
      {"O2SR_SERVE_BATCH", "7", "8", "0", "1", "4097", "4096"},
      {"O2SR_SERVE_SLO_MS", "50", "12.5", "-3", "50", "2e9", "50"},
      {"O2SR_SERVE_SLO_TARGET", "0.99", "0.95", "0", "0.99", "1.5", "0.99"},
      {"O2SR_FAULTS", "", "seed=7,score=error:0.02"},
      {"O2SR_PIPELINE_DIR", "pipeline_state", "state"},
      {"O2SR_PIPELINE_CYCLES", "3", "5", "0", "1", "1000000001",
       "1000000000"},
      {"O2SR_PIPELINE_RETRIES", "4", "8", "0", "1", "1000001", "1000000"},
      {"O2SR_PIPELINE_BACKOFF_MS", "5", "2.5", "-1", "0", "2e12", "1e+12"},
      {"O2SR_PLAN", "on", "eager"},
      {"O2SR_SIMD", "auto", "scalar"},
      {"O2SR_REGEN_GOLDENS", "", "1"},
  };
  return cases;
}

std::vector<std::string> Choices(const KnobSpec& spec) {
  std::vector<std::string> words;
  std::string word;
  for (const char* c = spec.choices;; ++c) {
    if (*c == '|' || *c == '\0') {
      words.push_back(word);
      word.clear();
      if (*c == '\0') return words;
    } else {
      word += *c;
    }
  }
}

// Reads `spec` through its typed accessor, rendered as text.
std::string Read(const KnobSpec& spec) {
  char buf[32];
  switch (spec.type) {
    case KnobType::kInt:
      return std::to_string(spec.default_value != nullptr
                                ? EnvInt(spec.knob)
                                : EnvInt(spec.knob, 7));
    case KnobType::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", EnvDouble(spec.knob));
      return buf;
    case KnobType::kString:
      return EnvString(spec.knob);
    case KnobType::kChoice:
      return Choices(spec)[static_cast<size_t>(EnvChoice(spec.knob))];
  }
  return "?";
}

std::string ReadWith(const KnobSpec& spec, const char* value) {
  ::setenv(spec.name, value, 1);
  const std::string read = Read(spec);
  ::unsetenv(spec.name);
  return read;
}

TEST(EnvTableTest, EveryRowKeepsItsValues) {
  const auto table = KnobTable();
  ASSERT_EQ(table.size(), Cases().size());
  for (size_t i = 0; i < table.size(); ++i) {
    const KnobSpec& spec = table[i];
    const Case& c = Cases()[i];
    SCOPED_TRACE(spec.name);
    ASSERT_STREQ(spec.name, c.name);
    EXPECT_NE(std::string(spec.doc), "");
    ::unsetenv(spec.name);
    EXPECT_EQ(Read(spec), c.unset);
    EXPECT_EQ(ReadWith(spec, ""), c.unset);  // empty means unset
    EXPECT_EQ(ReadWith(spec, c.in_range), c.in_range);
    EXPECT_EQ(c.below == nullptr, spec.type == KnobType::kString ||
                                      spec.type == KnobType::kChoice);
    if (c.below != nullptr) {
      EXPECT_EQ(ReadWith(spec, c.below), c.below_reads);
      EXPECT_EQ(ReadWith(spec, c.above), c.above_reads);
    }
    if (spec.type == KnobType::kChoice) {
      for (const std::string& word : Choices(spec)) {
        EXPECT_EQ(ReadWith(spec, word.c_str()), word);
      }
    }
  }
}

TEST(EnvTableDeathTest, GarbageIsFatalNamingTheVariable) {
  for (const KnobSpec& spec : KnobTable()) {
    if (spec.type == KnobType::kString) continue;  // any text is valid
    SCOPED_TRACE(spec.name);
    for (const char* garbage : {"garbage", "12x"}) {
      ::setenv(spec.name, garbage, 1);
      EXPECT_DEATH(Read(spec), std::string(spec.name) + "='" + garbage + "'");
    }
    ::unsetenv(spec.name);
  }
}

TEST(EnvTableTest, ReadmeEnvTableListsEveryRow) {
  std::ifstream readme(std::string(O2SR_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme.good());
  std::set<std::string> documented;
  for (std::string line; std::getline(readme, line);) {
    if (line.rfind("| `O2SR_", 0) != 0) continue;
    documented.insert(line.substr(3, line.find('`', 3) - 3));
  }
  std::set<std::string> declared;
  for (const KnobSpec& spec : KnobTable()) declared.insert(spec.name);
  EXPECT_EQ(documented, declared);
}

TEST(EnvScanDeathTest, UnknownVariableIsFatal) {
  ::setenv("O2SR_THREADS", "4", 1);
  CheckKnobs();  // known names with valid values pass
  ::setenv("O2SR_THREAD", "1", 1);
  EXPECT_DEATH(CheckKnobs(), "O2SR_THREAD='1'");
  ::unsetenv("O2SR_THREAD");
  ::setenv("O2SR_THREADS", "four", 1);  // the scan type-checks values too
  EXPECT_DEATH(CheckKnobs(), "O2SR_THREADS='four'");
  ::unsetenv("O2SR_THREADS");
}

// The hot-path knobs are read once per process, so these run each read in
// a fresh one: the threadsafe style re-executes the test binary.

TEST(EnvChoiceDeathTest, SimdOutsideItsChoicesIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"avx3", "AVX2", "sclar"}) {
    ::setenv("O2SR_SIMD", value, 1);
    EXPECT_DEATH(nn::kernels::ActiveSimd(),
                 std::string("O2SR_SIMD='") + value + "'");
  }
  for (const char* value : {"scalar", "off"}) {
    ::setenv("O2SR_SIMD", value, 1);
    EXPECT_EXIT(std::exit(static_cast<int>(nn::kernels::ActiveSimd())),
                ::testing::ExitedWithCode(
                    static_cast<int>(nn::kernels::Simd::kScalar)),
                "");
  }
  ::unsetenv("O2SR_SIMD");
}

TEST(EnvChoiceDeathTest, PlanOutsideItsChoicesIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"false", "no", "of"}) {
    ::setenv("O2SR_PLAN", value, 1);
    EXPECT_DEATH(nn::PlanEnabledFromEnv(),
                 std::string("O2SR_PLAN='") + value + "'");
  }
  const struct {
    const char* value;
    int planned;
  } accepted[] = {{"on", 1}, {"1", 1}, {"off", 0}, {"0", 0}, {"eager", 0}};
  for (const auto& [value, planned] : accepted) {
    ::setenv("O2SR_PLAN", value, 1);
    EXPECT_EXIT(std::exit(nn::PlanEnabledFromEnv() ? 1 : 0),
                ::testing::ExitedWithCode(planned), "");
  }
  ::unsetenv("O2SR_PLAN");
}

TEST(EnvChoiceDeathTest, LogLevelOutsideItsChoicesIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("O2SR_LOG_LEVEL", "verbose", 1);
  EXPECT_DEATH(obs::MinLogLevel(), "O2SR_LOG_LEVEL='verbose'");
  ::setenv("O2SR_LOG_LEVEL", "warning", 1);
  EXPECT_EXIT(std::exit(static_cast<int>(obs::MinLogLevel())),
              ::testing::ExitedWithCode(
                  static_cast<int>(obs::LogLevel::kWarning)),
              "");
  ::unsetenv("O2SR_LOG_LEVEL");
}

TEST(EnvFileKnobTest, EmptyFileKnobsWriteNothing) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("O2SR_PROFILE_FILE", "", 1);
  ::setenv("O2SR_TRACE_FILE", "", 1);
  ::setenv("O2SR_METRICS_FILE", "", 1);
  // Exits through the at-exit writers, which must stay silent.
  EXPECT_EXIT(
      {
        obs::TraceRecorder::Global();
        obs::MetricsRegistry::Global();
        std::exit(obs::Profiler::Global().enabled() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), ::testing::MatchesRegex(""));
  ::unsetenv("O2SR_PROFILE_FILE");
  ::unsetenv("O2SR_TRACE_FILE");
  ::unsetenv("O2SR_METRICS_FILE");
}

}  // namespace
}  // namespace o2sr::common
