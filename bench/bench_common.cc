#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/env.h"
#include "common/table_printer.h"
#include "core/o2siterec_recommender.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/profiler.h"

// Build-flavor stamps, normally injected by bench/CMakeLists.txt.
#ifndef O2SR_BUILD_TYPE_NAME
#define O2SR_BUILD_TYPE_NAME "unknown"
#endif
#ifndef O2SR_SANITIZE_NAME
#define O2SR_SANITIZE_NAME "none"
#endif

namespace o2sr::bench {

Scale CurrentScale() {
  // O2SR_BENCH_SCALE's choices are the Scale names in enum order.
  static const Scale scale =
      static_cast<Scale>(common::EnvChoice(common::Knob::kBenchScale));
  return scale;
}

const char* ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kSmall: return "small";
    case Scale::kStandard: return "standard";
    case Scale::kPaper: return "paper";
  }
  return "?";
}

sim::SimConfig RealDataConfig() {
  sim::SimConfig cfg;
  cfg.seed = 7;
  if (CurrentScale() != Scale::kSmall) {
    cfg.city_width_m = 12000.0;
    cfg.city_height_m = 12000.0;
    cfg.num_store_types = 18;
    cfg.num_stores = 9500;   // dense market, ~16 stores per active region
    cfg.num_couriers = 820;
    cfg.num_days = 7;
    cfg.peak_orders_per_region_slot = 5.0;
  } else {
    cfg.city_width_m = 7000.0;
    cfg.city_height_m = 7000.0;
    cfg.num_store_types = 14;
    cfg.num_stores = 3200;
    cfg.num_couriers = 280;
    cfg.num_days = 5;
    cfg.peak_orders_per_region_slot = 5.0;
  }
  return cfg;
}

sim::SimConfig OpenDataConfig() {
  sim::SimConfig cfg = RealDataConfig();
  cfg.preset = sim::SimulationPreset::kOpenData;
  cfg.seed = 8;
  return cfg;
}

sim::SimConfig SweepConfig() {
  sim::SimConfig cfg = RealDataConfig();
  if (CurrentScale() != Scale::kSmall) {
    cfg.city_width_m = 9000.0;
    cfg.city_height_m = 9000.0;
    cfg.num_stores = 5400;
    cfg.num_couriers = 470;
    cfg.num_days = 6;
  }
  return cfg;
}

core::O2SiteRecConfig ModelConfig() {
  core::O2SiteRecConfig cfg;
  cfg.rec.embedding_dim = 32;
  cfg.rec.node_heads = 4;
  cfg.rec.time_heads = 2;
  cfg.epochs = CurrentScale() != Scale::kSmall ? 30 : 25;
  cfg.learning_rate = 3e-3;
  return cfg;
}

baselines::BaselineConfig BaselineDefaults() {
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 32;
  cfg.epochs = 150;
  return cfg;
}

eval::EvalOptions EvalDefaults() {
  eval::EvalOptions opts;
  opts.min_candidates = CurrentScale() != Scale::kSmall ? 40 : 25;
  return opts;
}

PreparedData::PreparedData(const sim::SimConfig& config, uint64_t split_seed)
    : data(sim::GenerateDataset(config)) {
  split = eval::SplitInteractions(data, eval::BuildInteractions(data),
                                  {0.8, split_seed});
}

core::TrainContext MakeTrainContext(const PreparedData& prepared) {
  core::TrainContext ctx;
  ctx.data = &prepared.data;
  ctx.visible_orders = &prepared.split.train_orders;
  ctx.train = &prepared.split.train;
  return ctx;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Regenerates: %s\n", paper_ref.c_str());
  std::printf("Scale: %s (set O2SR_BENCH_SCALE=small for a quick run)\n",
              ScaleName(CurrentScale()));
  std::printf("==============================================================\n");
}

BenchReport::BenchReport(const std::string& name, const std::string& title,
                         const std::string& paper_ref)
    : name_(name),
      title_(title),
      paper_ref_(paper_ref),
      start_(std::chrono::steady_clock::now()) {
  PrintHeader(title, paper_ref);
  root_name_ = "bench." + name_;
  root_span_ = std::make_unique<obs::ScopedTrace>(root_name_.c_str());
}

BenchReport::~BenchReport() { Write(); }

void BenchReport::AddResult(const std::string& label,
                            const eval::EvalResult& result) {
  cells_.emplace_back(label, result);
}

void BenchReport::AddValue(const std::string& label, double value) {
  values_.emplace_back(label, value);
}

void BenchReport::Write() {
  if (written_) return;
  written_ = true;
  root_span_.reset();  // close "bench.<name>" so it has a duration
  // Profiler counters ride along in the Chrome trace. Emitting them here —
  // during main(), not at exit — sequences them before the trace file's
  // atexit export regardless of singleton construction order.
  {
    obs::Profiler& profiler = obs::Profiler::Global();
    if (profiler.enabled()) {
      profiler.EmitTraceCounters(&obs::TraceRecorder::Global());
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  std::ostringstream out;
  out << "{\"bench\":" << obs::JsonQuote(name_)
      << ",\"title\":" << obs::JsonQuote(title_)
      << ",\"paper_ref\":" << obs::JsonQuote(paper_ref_) << ",\"scale\":"
      << obs::JsonQuote(ScaleName(CurrentScale()))
      << ",\"seed_count\":" << seed_count_
      << ",\"threads\":" << exec::CurrentPool().num_threads()
      << ",\"build_type\":" << obs::JsonQuote(O2SR_BUILD_TYPE_NAME)
      << ",\"sanitizer\":" << obs::JsonQuote(O2SR_SANITIZE_NAME)
      << ",\"wall_clock_s\":" << obs::JsonNum(wall_s);

  // Fixed 3-decimal stage times: sub-microsecond double noise must not
  // show up as a diff between two otherwise identical runs.
  out << ",\"stages_ms\":{";
  bool first = true;
  for (const auto& [stage, ms] : obs::TraceRecorder::Global().StageMillis()) {
    if (!first) out << ",";
    first = false;
    out << obs::JsonQuote(stage) << ":" << obs::JsonFixed(ms, 3);
  }
  out << "}";

  out << ",\"cells\":[";
  first = true;
  auto get = [](const std::map<int, double>& m, int k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  for (const auto& [label, r] : cells_) {
    if (!first) out << ",";
    first = false;
    out << "{\"label\":" << obs::JsonQuote(label)
        << ",\"ndcg@3\":" << obs::JsonNum(get(r.ndcg, 3))
        << ",\"ndcg@5\":" << obs::JsonNum(get(r.ndcg, 5))
        << ",\"ndcg@10\":" << obs::JsonNum(get(r.ndcg, 10))
        << ",\"precision@3\":" << obs::JsonNum(get(r.precision, 3))
        << ",\"precision@5\":" << obs::JsonNum(get(r.precision, 5))
        << ",\"precision@10\":" << obs::JsonNum(get(r.precision, 10))
        << ",\"rmse\":" << obs::JsonNum(r.rmse)
        << ",\"types_evaluated\":" << r.types_evaluated << "}";
  }
  out << "]";

  out << ",\"values\":[";
  first = true;
  for (const auto& [label, value] : values_) {
    if (!first) out << ",";
    first = false;
    out << "{\"label\":" << obs::JsonQuote(label)
        << ",\"value\":" << obs::JsonNum(value) << "}";
  }
  out << "]}";

  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    O2SR_LOG(ERROR) << "cannot write bench report " << path;
    return;
  }
  file << out.str() << "\n";
  O2SR_LOG(INFO) << "bench report written to " << path;
}

std::vector<std::string> MetricCells(const eval::EvalResult& r) {
  auto get = [](const std::map<int, double>& m, int k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  return {TablePrinter::Num(get(r.ndcg, 3)),
          TablePrinter::Num(get(r.ndcg, 5)),
          TablePrinter::Num(get(r.ndcg, 10)),
          TablePrinter::Num(get(r.precision, 3)),
          TablePrinter::Num(get(r.precision, 5)),
          TablePrinter::Num(get(r.precision, 10)),
          TablePrinter::Num(r.rmse)};
}

eval::EvalResult AverageResults(const std::vector<eval::EvalResult>& results) {
  eval::EvalResult avg;
  if (results.empty()) return avg;
  for (const eval::EvalResult& r : results) {
    for (const auto& [k, v] : r.ndcg) avg.ndcg[k] += v;
    for (const auto& [k, v] : r.precision) avg.precision[k] += v;
    avg.rmse += r.rmse;
    avg.types_evaluated += r.types_evaluated;
  }
  const double n = static_cast<double>(results.size());
  for (auto& [k, v] : avg.ndcg) v /= n;
  for (auto& [k, v] : avg.precision) v /= n;
  avg.rmse /= n;
  avg.types_evaluated = static_cast<int>(avg.types_evaluated / n);
  return avg;
}

eval::EvalResult RunVariantAveraged(const PreparedData& prepared,
                                    core::O2SiteRecConfig config, int seeds,
                                    const eval::EvalOptions& options) {
  // Seed replicas are independent models; each writes its own result slot
  // and the slots are averaged in seed order, so the row is the same no
  // matter how many threads ran. Nested parallel regions inside RunOnce
  // (matmuls, graph builds) execute inline on the worker.
  std::vector<eval::EvalResult> results(seeds);
  exec::CurrentPool().ParallelFor(
      seeds, /*grain=*/1,
      [&](int64_t s) {
        core::O2SiteRecConfig seed_config = config;
        seed_config.seed = 21 + static_cast<int>(s);
        core::O2SiteRecRecommender model(seed_config);
        results[s] =
            eval::RunOnce(model, prepared.data, prepared.split, options)
                .value();
      },
      "exec.bench_seeds");
  return AverageResults(results);
}

}  // namespace o2sr::bench
