#ifndef O2SR_COMMON_ENV_H_
#define O2SR_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace o2sr::common {

// The O2SR_* knobs, declared once in the table in env.cc (DESIGN.md §7
// "Configuration"; the README env table lists the same rows). The library
// reads the process env nowhere else. A read applies four rules:
//
//   - unset or empty: the row's default (or the caller's `fallback`).
//   - parseable but outside the row's range: clamped to the range, or
//     reverted to the default on rows marked `revert`, with a warning on
//     stderr naming the variable, the value and what was used instead.
//   - garbage ("abc", "12x", overflow, a word not in the choice list):
//     fatal, naming the variable as NAME='value' and the accepted form.
//   - an O2SR_* variable the table does not declare: fatal. The first read
//     runs CheckKnobs() once, which also type-checks every set value.
//
// Knobs are operator input: a typo that silently runs a default is how a
// misconfigured run ships. Warnings and fatal errors print to stderr
// directly, so they show at any O2SR_LOG_LEVEL (the log level is itself a
// knob read here).

enum class Knob {
  kThreads,
  kBenchScale,
  kDataDir,
  kMemBudgetMb,
  kLogLevel,
  kTraceFile,
  kMetricsFile,
  kProfileFile,
  kServeCache,
  kServeDeadlineMs,
  kServeMaxInflight,
  kServeShards,
  kServeBatch,
  kServeSloMs,
  kServeSloTarget,
  kFaults,
  kPipelineDir,
  kPipelineCycles,
  kPipelineRetries,
  kPipelineBackoffMs,
  kPlan,
  kSimd,
  kRegenGoldens,
};

enum class KnobType { kInt, kDouble, kString, kChoice };

struct KnobSpec {
  Knob knob;
  const char* name;
  KnobType type;
  // kInt and kDouble: the accepted range [lo, hi].
  double lo = 0.0;
  double hi = 0.0;
  // Out-of-range values revert to the default instead of clamping.
  bool revert = false;
  // kChoice: the accepted words, '|'-separated; EnvChoice returns the index.
  const char* choices = "";
  // What an unset knob reads as; nullptr when every caller passes its own
  // fallback (the default depends on the machine or the binary).
  const char* default_value = nullptr;
  const char* doc = "";
};

// Every row, in Knob order.
std::span<const KnobSpec> KnobTable();

// Typed reads; each aborts when `knob` is not a row of that type.
// `fallback` replaces the row's default.
int64_t EnvInt(Knob knob, std::optional<int64_t> fallback = std::nullopt);
double EnvDouble(Knob knob, std::optional<double> fallback = std::nullopt);
std::string EnvString(Knob knob,
                      std::optional<std::string> fallback = std::nullopt);
// Index of the value (or of the default) in the row's choice list.
int EnvChoice(Knob knob);

// Fatal on a set O2SR_* variable that is not a row, or whose value does not
// parse as its row's type. The first read calls it once per process.
void CheckKnobs();

}  // namespace o2sr::common

#endif  // O2SR_COMMON_ENV_H_
