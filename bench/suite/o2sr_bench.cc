// o2sr_bench: the repo benchmark. Runs one workload, checks its outputs,
// and prints every end-to-end metric as `name value unit`, then one JSON
// result line (the last line of stdout).
//
//   o2sr_bench --workload=<name> [--seed=<n>] [--seconds=<s>]
//              [--trace=<dir>] [--work-dir=<dir>] [--out=<file>]
//   o2sr_bench --smoke [--workload=<name>]    toy sizes, every workload
//
// Workloads: train_o2siterec, train_baselines, serve_hot, serve_swap,
// ingest (see bench/suite/README.md for what each measures and why).
// --trace=<dir> makes a traced run: spans and the profiler are on, the
// result reports the per-layer metrics instead, and <dir> receives
// trace.json (Chrome trace), profile.json (profiler report) and
// layers.json (calls, total and self time per span name).
//
// o2sr_bench pins every configuration itself. It refuses (exit 2) to
// measure a non-Release or sanitizer build, and refuses any O2SR_*
// environment variable except O2SR_LOG_LEVEL, so no fault recipe, SIMD or
// plan override, thread count or scale knob changes what is measured.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/plan.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "suite.h"

#ifndef O2SR_BENCH_BUILD_TYPE
#define O2SR_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef O2SR_BENCH_SANITIZER
#define O2SR_BENCH_SANITIZER "unknown"
#endif

extern char** environ;

namespace o2sr::suite {
namespace {

const char* const kWorkloads[] = {"train_o2siterec", "train_baselines",
                                  "serve_hot", "serve_swap", "ingest"};

struct Args {
  RunOptions run;
  std::string trace_dir;
  std::string out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "o2sr_bench: " << error << "\n"
            << "usage: o2sr_bench --workload=<name> [--seed=<n>] "
               "[--seconds=<s>] [--trace=<dir>] [--work-dir=<dir>] "
               "[--out=<file>] | --smoke\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  // Inside the benchmark's default build directory, which git ignores.
  args.run.work_dir = ".bench_build/work/manual";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--smoke") {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.run.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.run.seconds > 0.0)) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      args.trace_dir = value;
    } else if (flag == "--work-dir") {
      args.run.work_dir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--smoke") {
      args.run.smoke = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  args.run.traced = !args.trace_dir.empty();
  if (!args.run.smoke && args.run.workload.empty()) Usage("--workload needed");
  if (!args.run.workload.empty() &&
      std::find(std::begin(kWorkloads), std::end(kWorkloads),
                args.run.workload) == std::end(kWorkloads)) {
    Usage("unknown workload " + args.run.workload);
  }
  return args;
}

// Only O2SR_LOG_LEVEL may be set: every other O2SR_* knob changes what the
// program does (faults, SIMD level, plan mode, threads, serving limits).
void RefuseEnvironmentKnobs() {
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("O2SR_", 0) != 0) continue;
    const std::string name = entry.substr(0, entry.find('='));
    if (name == "O2SR_LOG_LEVEL") continue;
    std::cerr << "o2sr_bench: refusing to run with " << name
              << " set; unset every O2SR_* variable except O2SR_LOG_LEVEL\n";
    std::exit(2);
  }
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string MetricsJson(const std::vector<MetricSpec>& catalogue,
                        const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < catalogue.size(); ++i) {
    const auto it = values.find(catalogue[i].name);
    out << (i > 0 ? ", " : "") << obs::JsonQuote(catalogue[i].name)
        << ": {\"value\": "
        << obs::JsonNum(it == values.end() ? 0.0 : it->second)
        << ", \"unit\": " << obs::JsonQuote(catalogue[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

// layers.json: per span name, the number of calls, the total duration and
// the self time (duration minus the part covered by child spans on the
// same thread).
std::string LayersJson(const std::vector<obs::TraceSpan>& spans) {
  struct Agg {
    uint64_t calls = 0;
    int64_t total_us = 0;
    int64_t self_us = 0;
  };
  std::vector<int64_t> child_us(spans.size(), 0);
  // Spans are stored in start order and nest per thread, so a span's parent
  // is the latest span one level up on its thread.
  std::map<int, std::vector<size_t>> latest_at_depth;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::TraceSpan& span = spans[i];
    if (span.dur_us < 0) continue;
    std::vector<size_t>& latest = latest_at_depth[span.tid];
    const size_t depth = static_cast<size_t>(span.depth);
    if (depth > 0 && depth <= latest.size()) {
      child_us[latest[depth - 1]] += span.dur_us;
    }
    latest.resize(depth + 1);
    latest[depth] = i;
  }
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].dur_us < 0) continue;
    Agg& agg = by_name[spans[i].name];
    ++agg.calls;
    agg.total_us += spans[i].dur_us;
    agg.self_us += std::max<int64_t>(0, spans[i].dur_us - child_us[i]);
  }
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, agg] : by_name) {
    out << (first ? "" : ",\n ") << obs::JsonQuote(name)
        << ": {\"calls\": " << agg.calls
        << ", \"total_ms\": " << obs::JsonFixed(agg.total_us / 1e3, 3)
        << ", \"self_ms\": " << obs::JsonFixed(agg.self_us / 1e3, 3) << "}";
    first = false;
  }
  out << "}\n";
  return out.str();
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::trunc);
  file << text;
  return static_cast<bool>(file);
}

// Runs args.run.workload and prints its result; true when every check held.
bool RunOne(const Args& args, const std::string& stamp) {
  const RunOptions& run = args.run;
  Ledger ledger(run.traced);
  if (run.workload == "train_o2siterec") {
    RunTrainO2SiteRec(run, &ledger);
  } else if (run.workload == "train_baselines") {
    RunTrainBaselines(run, &ledger);
  } else if (run.workload == "serve_hot") {
    RunServe(run, /*swap=*/false, &ledger);
  } else if (run.workload == "serve_swap") {
    RunServe(run, /*swap=*/true, &ledger);
  } else {
    RunIngest(run, &ledger);
  }
  for (const MetricSpec& metric : E2eMetrics()) {
    if (ledger.e2e().count(metric.name) == 0) {
      ledger.Fail(metric.name + " was not measured");
    }
  }
  // A run that failed before its first operation still attempted one.
  if (ledger.attempted() == 0) ledger.Attempt();

  bool correct = ledger.failed() == 0;
  const std::vector<MetricSpec>& reported =
      run.traced ? LayerMetrics() : E2eMetrics();
  const std::map<std::string, double>& values =
      run.traced ? ledger.layers() : ledger.e2e();
  for (const MetricSpec& metric : reported) {
    const auto it = values.find(metric.name);
    std::printf("%s %.6g %s\n", metric.name.c_str(),
                it == values.end() ? 0.0 : it->second, metric.unit.c_str());
  }

  std::ostringstream failures;
  for (size_t i = 0; i < ledger.failures().size(); ++i) {
    failures << (i > 0 ? ", " : "") << obs::JsonQuote(ledger.failures()[i]);
  }
  const std::string counts =
      "\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(ledger.attempted()) +
      ", \"failed\": " + std::to_string(ledger.failed());
  if (!args.out.empty()) {
    std::ostringstream result;
    result << "{\"workload\": " << obs::JsonQuote(run.workload)
           << ", \"seconds\": " << obs::JsonNum(run.seconds)
           << ", \"traced\": " << (run.traced ? "true" : "false")
           << ", \"stamp\": " << stamp << ", " << counts
           << ", \"failures\": [" << failures.str() << "]"
           << ", \"e2e\": " << MetricsJson(E2eMetrics(), ledger.e2e());
    if (run.traced) {
      result << ", \"per_layer\": "
             << MetricsJson(LayerMetrics(), ledger.layers());
    }
    result << "}\n";
    if (!WriteText(args.out, result.str())) {
      std::cerr << "o2sr_bench: cannot write " << args.out << "\n";
      correct = false;
    }
  }
  std::printf("{%s, \"metrics\": %s}\n", counts.c_str(),
              MetricsJson(reported, values).c_str());
  std::fflush(stdout);
  return correct;
}

bool WriteTrace(const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return false;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool layers_ok =
      WriteText(dir + "/layers.json", LayersJson(recorder.Snapshot()));
  return layers_ok && recorder.WriteChromeTrace(dir + "/trace.json").ok() &&
         obs::Profiler::Global().WriteReport(dir + "/profile.json").ok();
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  RefuseEnvironmentKnobs();
  const std::string build_type = O2SR_BENCH_BUILD_TYPE;
  const std::string sanitizer = O2SR_BENCH_SANITIZER;
  if (!args.run.smoke && (build_type != "Release" || sanitizer != "none")) {
    std::cerr << "o2sr_bench: refusing to measure a " << build_type
              << " build with sanitizer '" << sanitizer
              << "'; build Release without sanitizers\n";
    return 2;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  exec::ThreadPool pool(static_cast<int>(std::min(4u, hw)));
  exec::PoolScope pool_scope(&pool);
  args.run.pool = &pool;
  obs::TraceRecorder::Global().SetRecording(args.run.traced);
  obs::Profiler::Global().Enable(args.run.traced);

  std::ostringstream stamp;
  stamp << "{\"nproc\": " << hw
        << ", \"cpu_model\": " << obs::JsonQuote(CpuModel())
        << ", \"pool_lanes\": " << pool.num_threads() << ", \"simd\": "
        << obs::JsonQuote(nn::kernels::SimdName(nn::kernels::ActiveSimd()))
        << ", \"plan\": " << (nn::PlanEnabledFromEnv() ? "true" : "false")
        << ", \"build_type\": " << obs::JsonQuote(build_type)
        << ", \"sanitizer\": " << obs::JsonQuote(sanitizer)
        << ", \"seed\": " << args.run.seed << "}";
  std::cerr << "o2sr_bench: " << stamp.str() << "\n";

  std::vector<std::string> workloads;
  if (args.run.workload.empty()) {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    workloads.push_back(args.run.workload);
  }
  if (args.run.smoke) args.run.seconds = std::min(args.run.seconds, 0.5);
  bool ok = true;
  for (const std::string& workload : workloads) {
    args.run.workload = workload;
    ok = RunOne(args, stamp.str()) && ok;
  }
  if (args.run.traced && !WriteTrace(args.trace_dir)) {
    std::cerr << "o2sr_bench: cannot write the trace to " << args.trace_dir
              << "\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace o2sr::suite

int main(int argc, char** argv) { return o2sr::suite::Main(argc, argv); }
