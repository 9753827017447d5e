#ifndef O2SR_BENCH_BENCH_COMMON_H_
#define O2SR_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline_common.h"
#include "core/o2siterec.h"
#include "eval/experiment.h"
#include "obs/trace.h"
#include "sim/config.h"
#include "sim/dataset.h"

namespace o2sr::bench {

// Bench scale, selected by the O2SR_BENCH_SCALE knob:
//   "small"    - quick shape check (~4x faster, noisier numbers)
//   "standard" - default; the numbers recorded in EXPERIMENTS.md
//   "paper"    - the paper's workload (39,465 stores / 23.6M orders);
//                only bench_scale runs the full out-of-core ingest, other
//                benches fall back to their standard budgets
// Any other value is fatal (INVALID_ARGUMENT listing the accepted set) —
// a typo must not silently re-run the default scale.
enum class Scale { kSmall, kStandard, kPaper };
Scale CurrentScale();
// "small" / "standard" / "paper" (the BENCH json "scale" meta field).
const char* ScaleName(Scale scale);

// The synthetic-Eleme dataset behind Table III and every figure
// (substitute for the paper's proprietary real-world data).
sim::SimConfig RealDataConfig();
// The open-data preset behind Table IV (sparser + noisier).
sim::SimConfig OpenDataConfig();
// A smaller city for hyper-parameter sweeps (Fig. 15-16) where many models
// are trained.
sim::SimConfig SweepConfig();

// Default model/baseline budgets for the bench scale.
core::O2SiteRecConfig ModelConfig();
baselines::BaselineConfig BaselineDefaults();
eval::EvalOptions EvalDefaults();

// Dataset + split prepared once per bench binary.
struct PreparedData {
  sim::Dataset data;
  eval::Split split;

  explicit PreparedData(const sim::SimConfig& config, uint64_t split_seed);
};

// TrainContext over a prepared split (hooks/report/pool left defaulted).
// The context borrows from `prepared`, which must outlive it.
core::TrainContext MakeTrainContext(const PreparedData& prepared);

// Prints the bench banner: which table/figure of the paper this regenerates
// and on what data scale.
void PrintHeader(const std::string& title, const std::string& paper_ref);

// Machine-readable run artifact of a bench binary. Construct it first
// thing in main():
//
//   bench::BenchReport report("table03_overall_real", title, paper_ref);
//
// It prints the banner, opens the root trace span "bench.<name>" (so an
// O2SR_TRACE_FILE export has a single span covering the whole run), and on
// destruction writes BENCH_<name>.json into the working directory with the
// bench scale, per-stage wall-clock from the trace layer, every metric
// cell/value the bench registered, and the seed count. `wall_clock_s` is
// the root span's duration, so it equals stages_ms["bench.<name>"]. The
// stdout table is unchanged; the JSON is what the repo-level perf
// trajectory accumulates.
class BenchReport {
 public:
  BenchReport(const std::string& name, const std::string& title,
              const std::string& paper_ref);
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void set_seed_count(int n) { seed_count_ = n; }

  // A labeled EvalResult row (Table III column order in the JSON cell).
  void AddResult(const std::string& label, const eval::EvalResult& result);
  // A labeled scalar (figure series points, t-statistics, deltas...).
  void AddValue(const std::string& label, double value);

  // Writes BENCH_<name>.json (idempotent; the destructor calls it).
  void Write();

 private:
  std::string name_;
  std::string title_;
  std::string paper_ref_;
  std::string root_name_;  // backing storage for the root span's name
  int seed_count_ = 1;
  std::vector<std::pair<std::string, eval::EvalResult>> cells_;
  std::vector<std::pair<std::string, double>> values_;
  std::unique_ptr<obs::ScopedTrace> root_span_;
  bool written_ = false;
};

// Formats an EvalResult in Table III column order:
// NDCG@3, NDCG@5, NDCG@10, P@3, P@5, P@10, RMSE.
std::vector<std::string> MetricCells(const eval::EvalResult& result);

// Averages eval results element-wise (used for multi-seed rows).
eval::EvalResult AverageResults(const std::vector<eval::EvalResult>& results);

// Trains and evaluates an O2-SiteRec configuration `seeds` times (seeds
// 21, 22, ...) and returns the averaged result. Used by the ablation
// benches, whose single-seed orderings are noisy.
eval::EvalResult RunVariantAveraged(const PreparedData& prepared,
                                    core::O2SiteRecConfig config, int seeds,
                                    const eval::EvalOptions& options);

}  // namespace o2sr::bench

#endif  // O2SR_BENCH_BENCH_COMMON_H_
