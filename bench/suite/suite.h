#ifndef O2SR_BENCH_SUITE_SUITE_H_
#define O2SR_BENCH_SUITE_SUITE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/recommender.h"
#include "eval/experiment.h"
#include "exec/thread_pool.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/config.h"
#include "sim/dataset.h"

// Shared plumbing of the repo benchmark (o2sr_bench): run options, the
// metric catalogue, and the ledger every workload reports into.
namespace o2sr::suite {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured phase. Loops repeat their unit of work until it
  // has elapsed; the serving ladder splits it across its rungs.
  double seconds = 10.0;
  // Toy sizes for the smoke test; the checks stay on.
  bool smoke = false;
  // Traced run: spans + profiler on, per-layer metrics reported.
  bool traced = false;
  // Working directory for shards and snapshots (created and emptied by the
  // workloads that need it).
  std::string work_dir;
  // The execution pool every workload runs on (serving queries excepted:
  // see serve_workloads.cc).
  exec::ThreadPool* pool = nullptr;
};

// Independent seed of random stream `stream` of the run (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

double MsSince(Clock::time_point start);
double SecondsSince(Clock::time_point start);

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set (VmHWM) of this process, in MiB. Workloads sample it
// after their warm-up repetition: memory parked by the program (the tensor
// pool) keeps growing with repetitions, and the repetition count depends on
// speed.
double PeakRssMb();

struct MetricSpec {
  std::string name;
  std::string unit;
};
// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"), and the per-layer metrics a traced run reports
// (BENCHMARK.json "per_layer"). A layer a workload does not exercise
// reports 0.
const std::vector<MetricSpec>& E2eMetrics();
const std::vector<MetricSpec>& LayerMetrics();

// Rungs (fixed offered rates) of the serving ladder; the catalogue holds one
// set of per-layer metrics per rung.
inline constexpr int kRungs = 5;

// Profiler aggregates of an interval (after − before), so setup work does
// not leak into per-operation kernel numbers.
struct ProfileDelta {
  std::map<std::string, obs::RegionProfile> regions;
  std::map<std::string, obs::OpProfile> ops;
};
ProfileDelta ProfileSince(const ProfileDelta& before);
ProfileDelta ProfileNow();

// What one run measured and checked. Workloads time each layer call from
// outside through Time(), set the e2e metrics, and count every operation
// (and every failed correctness check) into attempted/failed.
class Ledger {
 public:
  explicit Ledger(bool traced) : traced_(traced) {}
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool traced() const { return traced_; }

  // Runs fn(), records its wall time under `layer`, and (traced) wraps it in
  // a trace span "suite.<layer>". Returns fn()'s result.
  template <typename Fn>
  auto Time(const std::string& layer, Fn&& fn) -> decltype(fn()) {
    Timer timer(this, layer);
    return fn();
  }
  // Per-call wall times recorded under `layer`, in ms.
  const std::vector<double>& Calls(const std::string& layer) const;

  void SetE2e(const std::string& name, double value);
  void SetLayer(const std::string& name, double value);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  // Records `count` failed operations or correctness checks, described by
  // `what` (printed to stderr once).
  void Fail(const std::string& what, uint64_t count = 1);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, double>& e2e() const { return e2e_; }
  const std::map<std::string, double>& layers() const { return layers_; }

 private:
  class Timer {
   public:
    Timer(Ledger* ledger, const std::string& layer);
    ~Timer();
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    Ledger* ledger_;
    std::string layer_;
    Clock::time_point start_;
    std::unique_ptr<obs::ScopedTrace> span_;
  };

  void AddCall(const std::string& layer, double ms);

  bool traced_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::vector<double>> calls_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layers_;
};

// Runs set_up(rep) and then op(rep) for rep = 0, 1, ... until `seconds`
// have elapsed since the start, at least twice. op(0) is a warm-up (lazy
// set-up, the tensor pool, caches). Returns the wall times of op after the
// warm-up, in ms; set_up times itself. Either returns false to stop early.
//
// The workload's set-up runs before every repetition, not all at the
// start, so that the median set-up spans the run: the host's slow phases
// last seconds, and a run's first seconds may fall in one entirely.
//
// The end-to-end times of every workload come from its fastest unit of
// work (repetition, or serving window), not its median one. On a shared
// host, other programs slow each vCPU by up to 2x for a few hundred ms at
// a time, and the share of slowed time drifts over minutes. A run's median
// unit follows that drift; interference only adds time, so the fastest
// unit tracks the program's own cost. Its run-to-run spread is smaller
// than the median's (measurements in bench/suite/README.md).
template <typename SetUp, typename Op>
std::vector<double> RepeatFor(double seconds, SetUp&& set_up, Op&& op) {
  std::vector<double> op_ms;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 2 || SecondsSince(start) < seconds; ++rep) {
    if (!set_up(rep)) break;
    const Clock::time_point rep_start = Clock::now();
    if (!op(rep)) break;
    if (rep > 0) op_ms.push_back(MsSince(rep_start));
  }
  return op_ms;
}

// Median call time of `layer` in ms, published as per-layer metric
// `<layer>_ms` (0 when never called).
void PublishMedianMs(Ledger* ledger, const std::string& layer);

// Per-layer metrics of the trainer spans the program already records
// (train.epoch / train.forward_backward / train.optimizer_step, model.build
// and model.build_serving_table): median span duration, in ms.
void PublishTrainerSpans(Ledger* ledger);

// nn/exec metrics from profiler aggregates over the measured loop, per
// repetition of the loop body; `loop_ms` is the loop body's wall time per
// repetition (for exec.outside_regions_ms; 0 leaves that metric unset).
void PublishKernelProfile(Ledger* ledger, const ProfileDelta& delta,
                          int repetitions, double loop_ms);

// A generated city and its train/test split.
struct Prepared {
  sim::Dataset data;
  eval::Split split;
};

// The city a training or serving workload generates; `stream` picks its
// seed out of the run seed.
sim::SimConfig TrainCity(const RunOptions& options,
                         sim::SimulationPreset preset, uint64_t stream);

// Set-up of a city: GenerateDataset + BuildInteractions + SplitInteractions.
// Its seconds are appended to `setup_s`.
std::unique_ptr<Prepared> SetUpCity(const sim::SimConfig& city,
                                    uint64_t split_seed, Ledger* ledger,
                                    std::vector<double>* setup_s);

// A TrainContext over `prepared` on `pool`.
core::TrainContext ContextOf(const Prepared& prepared,
                             exec::ThreadPool* pool);

struct TrainOutcome {
  bool ok = false;
  double samples = 0.0;   // training interactions x epochs run
  double train_ms = 0.0;  // wall time of the Train call
  double ndcg3 = 0.0;
  std::vector<double> predictions;  // on the test split
};

// Trains `model` (timed under `layer`), predicts the test split and
// evaluates it. Counts one attempted operation; a failed Train or Predict,
// a non-finite prediction or an NDCG outside [0, 1] counts as failed.
TrainOutcome TrainAndRank(core::SiteRecommender& model,
                          const Prepared& prepared, const RunOptions& options,
                          const std::string& layer, Ledger* ledger);

// The five workloads.
void RunTrainO2SiteRec(const RunOptions& options, Ledger* ledger);
void RunTrainBaselines(const RunOptions& options, Ledger* ledger);
void RunServe(const RunOptions& options, bool swap, Ledger* ledger);
void RunIngest(const RunOptions& options, Ledger* ledger);

}  // namespace o2sr::suite

#endif  // O2SR_BENCH_SUITE_SUITE_H_
