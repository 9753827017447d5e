#include "common/env.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>

#include "common/check.h"

namespace o2sr::common {
namespace {

constexpr double kTwoPow40 = 1099511627776.0;

// The one declaration of every O2SR_* environment variable. README's env
// table mirrors it row for row (tests/env_test.cc checks the names).
constexpr KnobSpec kKnobs[] = {
    {.knob = Knob::kThreads, .name = "O2SR_THREADS", .type = KnobType::kInt,
     .lo = 0, .hi = 256, .default_value = "0",
     .doc = "Worker count of the global thread pool; 0 means hardware "
            "concurrency. Results are bit-identical at any value."},
    {.knob = Knob::kBenchScale, .name = "O2SR_BENCH_SCALE",
     .type = KnobType::kChoice, .choices = "small|standard|paper",
     .default_value = "standard",
     .doc = "Experiment bench scale; paper runs the full §IV-A1 dataset "
            "(bench_scale only)."},
    {.knob = Knob::kDataDir, .name = "O2SR_DATA_DIR",
     .type = KnobType::kString, .default_value = "o2sr_data",
     .doc = "Directory of the out-of-core spill dataset (bench_scale "
            "defaults to bench_scale_data_<scale>)."},
    {.knob = Knob::kMemBudgetMb, .name = "O2SR_MEM_BUDGET_MB",
     .type = KnobType::kInt, .lo = 64, .hi = 1048576,
     .default_value = "2048",
     .doc = "Memory budget the streaming ingest sizes its region blocks "
            "against; identical bits at any value."},
    {.knob = Knob::kLogLevel, .name = "O2SR_LOG_LEVEL",
     .type = KnobType::kChoice, .choices = "debug|info|warning|error|off",
     .default_value = "info", .doc = "Minimum emitted log level."},
    {.knob = Knob::kTraceFile, .name = "O2SR_TRACE_FILE",
     .type = KnobType::kString, .default_value = "",
     .doc = "Write Chrome trace_event JSON to this path at process exit."},
    {.knob = Knob::kMetricsFile, .name = "O2SR_METRICS_FILE",
     .type = KnobType::kString, .default_value = "",
     .doc = "Write the metrics registry as JSON to this path at process "
            "exit."},
    {.knob = Knob::kProfileFile, .name = "O2SR_PROFILE_FILE",
     .type = KnobType::kString, .default_value = "",
     .doc = "Enable the attribution profiler and write its JSON report to "
            "this path at process exit."},
    {.knob = Knob::kServeCache, .name = "O2SR_SERVE_CACHE",
     .type = KnobType::kInt, .lo = 0, .hi = kTwoPow40,
     .default_value = "65536",
     .doc = "Score-cache capacity in entries per serving front-end shard; "
            "0 disables caching."},
    {.knob = Knob::kServeDeadlineMs, .name = "O2SR_SERVE_DEADLINE_MS",
     .type = KnobType::kDouble, .lo = -1e12, .hi = 1e12,
     .default_value = "0",
     .doc = "Default per-request serving budget in ms; 0 or less means "
            "none."},
    {.knob = Knob::kServeMaxInflight, .name = "O2SR_SERVE_MAX_INFLIGHT",
     .type = KnobType::kInt, .lo = 0, .hi = kTwoPow40, .default_value = "0",
     .doc = "Serving admission high-water mark; 0 means unbounded."},
    {.knob = Knob::kServeShards, .name = "O2SR_SERVE_SHARDS",
     .type = KnobType::kInt, .lo = 1, .hi = 64,
     .doc = "Front-end shards of a serving engine; the engine defaults to "
            "hardware concurrency clamped to [1, 16]."},
    {.knob = Knob::kServeBatch, .name = "O2SR_SERVE_BATCH",
     .type = KnobType::kInt, .lo = 1, .hi = 4096,
     .doc = "Batch size serving drivers pass to RankSitesBatch "
            "(bench_serving 16, serve_demo 8)."},
    // The two SLO rows revert instead of clamping: an objective clamped to
    // an absurd bound would be worse than the default.
    {.knob = Knob::kServeSloMs, .name = "O2SR_SERVE_SLO_MS",
     .type = KnobType::kDouble, .lo = 1e-6, .hi = 1e9, .revert = true,
     .default_value = "50",
     .doc = "Latency objective of the serving SLO monitor, in ms."},
    {.knob = Knob::kServeSloTarget, .name = "O2SR_SERVE_SLO_TARGET",
     .type = KnobType::kDouble, .lo = 1e-6, .hi = 1.0 - 1e-9, .revert = true,
     .default_value = "0.99",
     .doc = "Good-request fraction the serving SLO promises."},
    {.knob = Knob::kFaults, .name = "O2SR_FAULTS", .type = KnobType::kString,
     .default_value = "",
     .doc = "Deterministic fault-injection recipe (common/fault.h); a "
            "malformed recipe is fatal."},
    {.knob = Knob::kPipelineDir, .name = "O2SR_PIPELINE_DIR",
     .type = KnobType::kString, .default_value = "pipeline_state",
     .doc = "Work directory of the continual pipeline (continual_demo "
            "defaults to continual_state)."},
    {.knob = Knob::kPipelineCycles, .name = "O2SR_PIPELINE_CYCLES",
     .type = KnobType::kInt, .lo = 1, .hi = 1e9, .default_value = "3",
     .doc = "Refresh cycles the continual pipeline completes."},
    {.knob = Knob::kPipelineRetries, .name = "O2SR_PIPELINE_RETRIES",
     .type = KnobType::kInt, .lo = 1, .hi = 1e6, .default_value = "4",
     .doc = "Max attempts of the pipeline's retry supervisor."},
    {.knob = Knob::kPipelineBackoffMs, .name = "O2SR_PIPELINE_BACKOFF_MS",
     .type = KnobType::kDouble, .lo = 0, .hi = 1e12, .default_value = "5",
     .doc = "Initial retry backoff of the pipeline supervisor, in ms."},
    {.knob = Knob::kPlan, .name = "O2SR_PLAN", .type = KnobType::kChoice,
     .choices = "on|1|off|0|eager", .default_value = "on",
     .doc = "on/1 run the planned executor; off/0/eager the bit-exact eager "
            "reference."},
    {.knob = Knob::kSimd, .name = "O2SR_SIMD", .type = KnobType::kChoice,
     .choices = "auto|avx2|scalar|off", .default_value = "auto",
     .doc = "Kernel dispatch: auto picks AVX2 by cpuid; scalar and off force "
            "the reference kernels."},
    {.knob = Knob::kRegenGoldens, .name = "O2SR_REGEN_GOLDENS",
     .type = KnobType::kString, .default_value = "",
     .doc = "Tests only: any value makes golden_test print fresh goldens "
            "instead of checking them."},
};

constexpr bool RowsFollowKnobOrder() {
  for (size_t i = 0; i < std::size(kKnobs); ++i) {
    if (static_cast<size_t>(kKnobs[i].knob) != i) return false;
  }
  return std::size(kKnobs) == static_cast<size_t>(Knob::kRegenGoldens) + 1;
}
static_assert(RowsFollowKnobOrder(), "kKnobs must list every Knob in order");

[[noreturn]] void Die(const char* message) {
  std::fprintf(stderr, "[E env.cc] INVALID_ARGUMENT: %s\n", message);
  std::fflush(stderr);
  std::abort();
}

std::string Accepted(const KnobSpec& spec) {
  switch (spec.type) {
    case KnobType::kInt: return "a base-10 integer";
    case KnobType::kDouble: return "a decimal number";
    case KnobType::kChoice: return spec.choices;
    case KnobType::kString: return "any text";
  }
  return "?";
}

[[noreturn]] void DieInvalid(const KnobSpec& spec, const char* value) {
  const std::string message =
      std::string("environment variable ") + spec.name + "='" + value +
      "' is not valid; accepted: " + Accepted(spec);
  Die(message.c_str());
}

bool Parse(const char* text, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool Parse(const char* text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

// Index of `word` in the row's '|'-separated choices; -1 when absent.
int ChoiceIndex(const KnobSpec& spec, std::string_view word) {
  std::string_view rest = spec.choices;
  for (int index = 0;; ++index) {
    const size_t bar = rest.find('|');
    if (rest.substr(0, bar) == word) return index;
    if (bar == std::string_view::npos) return -1;
    rest.remove_prefix(bar + 1);
  }
}

bool ParsesAs(const KnobSpec& spec, const char* value) {
  int64_t i = 0;
  double d = 0.0;
  switch (spec.type) {
    case KnobType::kInt: return Parse(value, &i);
    case KnobType::kDouble: return Parse(value, &d);
    case KnobType::kChoice: return ChoiceIndex(spec, value) >= 0;
    case KnobType::kString: return true;
  }
  return false;
}

const KnobSpec& Spec(Knob knob, KnobType type) {
  const KnobSpec& spec = kKnobs[static_cast<size_t>(knob)];
  O2SR_CHECK(spec.type == type);
  return spec;
}

// The knob's value, or nullptr when it is unset or empty.
const char* SetValue(const KnobSpec& spec) {
  static const bool checked = (CheckKnobs(), true);
  (void)checked;
  const char* value = std::getenv(spec.name);
  return value != nullptr && *value != '\0' ? value : nullptr;
}

template <typename T>
T Default(const KnobSpec& spec, const std::optional<T>& fallback) {
  if (fallback.has_value()) return *fallback;
  O2SR_CHECK(spec.default_value != nullptr);  // the caller owes a fallback
  T value{};
  O2SR_CHECK(Parse(spec.default_value, &value));
  return value;
}

std::string Format(int64_t value) { return std::to_string(value); }

std::string Format(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

template <typename T>
T ReadNumber(Knob knob, KnobType type, const std::optional<T>& fallback) {
  const KnobSpec& spec = Spec(knob, type);
  const char* text = SetValue(spec);
  if (text == nullptr) return Default(spec, fallback);
  T value{};
  if (!Parse(text, &value)) DieInvalid(spec, text);
  const T lo = static_cast<T>(spec.lo);
  const T hi = static_cast<T>(spec.hi);
  if (value >= lo && value <= hi) return value;  // NaN falls through
  const T used =
      spec.revert ? Default(spec, fallback) : (value < lo ? lo : hi);
  std::fprintf(stderr, "[W env.cc] %s=%s outside [%s, %s], using %s\n",
               spec.name, text, Format(lo).c_str(), Format(hi).c_str(),
               Format(used).c_str());
  return used;
}

}  // namespace

std::span<const KnobSpec> KnobTable() { return kKnobs; }

int64_t EnvInt(Knob knob, std::optional<int64_t> fallback) {
  return ReadNumber(knob, KnobType::kInt, fallback);
}

double EnvDouble(Knob knob, std::optional<double> fallback) {
  return ReadNumber(knob, KnobType::kDouble, fallback);
}

std::string EnvString(Knob knob, std::optional<std::string> fallback) {
  const KnobSpec& spec = Spec(knob, KnobType::kString);
  if (const char* text = SetValue(spec)) return text;
  return fallback.has_value() ? *fallback : spec.default_value;
}

int EnvChoice(Knob knob) {
  const KnobSpec& spec = Spec(knob, KnobType::kChoice);
  const char* text = SetValue(spec);
  if (text == nullptr) text = spec.default_value;
  const int index = ChoiceIndex(spec, text);
  if (index < 0) DieInvalid(spec, text);
  return index;
}

void CheckKnobs() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view pair(*entry);
    if (!pair.starts_with("O2SR_")) continue;
    const size_t eq = pair.find('=');
    const std::string name(pair.substr(0, eq));
    const char* value = eq == std::string_view::npos ? "" : *entry + eq + 1;
    const auto spec = std::find_if(
        std::begin(kKnobs), std::end(kKnobs),
        [&](const KnobSpec& row) { return name == row.name; });
    if (spec == std::end(kKnobs)) {
      const std::string message =
          "unknown environment variable " + name + "='" + value +
          "'; the O2SR_* variables are listed in README's env table";
      Die(message.c_str());
    }
    if (*value != '\0' && !ParsesAs(*spec, value)) DieInvalid(*spec, value);
  }
}

}  // namespace o2sr::common
