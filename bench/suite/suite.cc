#include "suite.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/check.h"

namespace o2sr::suite {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(idx), values.end());
  return values[idx];
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

const std::vector<MetricSpec>& E2eMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"throughput", "items/s"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m = {
        {"sim.generate_dataset_ms", "ms"},
        {"sim.build_world_ms", "ms"},
        {"sim.stream_generate_ms", "ms"},
        {"sim.shard_bytes", "bytes"},
        {"sim.reader_open_ms", "ms"},
        {"eval.split_ms", "ms"},
        {"eval.ndcg3", "ratio"},
        {"features.aggregate_spill_ms", "ms"},
        {"graphs.hetero_ms", "ms"},
        {"graphs.mobility_ms", "ms"},
        {"graphs.model_build_ms", "ms"},
        {"core.train_ms", "ms"},
        {"core.forward_backward_ms", "ms"},
        {"core.optimizer_step_ms", "ms"},
        {"core.epoch_ms_p50", "ms"},
        {"core.build_serving_table_ms", "ms"},
        {"core.prepare_serving_ms", "ms"},
        {"core.serving_predict_us_per_pair", "us"},
        {"baselines.CityTransfer.train_ms", "ms"},
        {"baselines.BL-G-CoSVD.train_ms", "ms"},
        {"baselines.GC-MC.train_ms", "ms"},
        {"baselines.GraphRec.train_ms", "ms"},
        {"baselines.RGCN.train_ms", "ms"},
        {"baselines.HGT.train_ms", "ms"},
        {"nn.matmul.wall_ms", "ms"},
        {"nn.matmul_ta.wall_ms", "ms"},
        {"nn.matmul_tb.wall_ms", "ms"},
        {"nn.gather_rows.wall_ms", "ms"},
        {"nn.concat_cols.wall_ms", "ms"},
        {"tape.gather_rows.bytes_moved", "bytes"},
        {"tape.concat_cols.bytes_moved", "bytes"},
        {"nn.ops_dispatched", "count"},
        {"exec.regions_dispatched", "count"},
        {"exec.regions_inline", "count"},
        {"exec.chunks", "count"},
        {"exec.matmul_ta.items_per_region", "count"},
        {"exec.lane_efficiency", "ratio"},
        {"exec.idle_ms", "ms"},
        {"exec.lane0_busy_ratio", "ratio"},
        {"exec.outside_regions_ms", "ms"},
        {"serve.cache_hit_rate", "ratio"},
        {"serve.service_us_p50", "us"},
        {"serve.pairs_scored", "count"},
        {"serve.swap_ms_p50", "ms"},
        {"serve.swaps", "count"},
        {"serve.degraded_responses", "count"},
    };
    for (int i = 0; i < kRungs; ++i) {
      const std::string rung = "serve.rung" + std::to_string(i) + ".";
      m.push_back({rung + "achieved_qps", "req/s"});
      m.push_back({rung + "p50_ms", "ms"});
      m.push_back({rung + "p99_ms", "ms"});
      m.push_back({rung + "samples", "count"});
      m.push_back({rung + "lateness_ms", "ms"});
    }
    return m;
  }();
  return metrics;
}

namespace {

bool InCatalogue(const std::vector<MetricSpec>& catalogue,
                 const std::string& name) {
  return std::any_of(catalogue.begin(), catalogue.end(),
                     [&](const MetricSpec& m) { return m.name == name; });
}

}  // namespace

ProfileDelta ProfileNow() {
  const obs::Profiler& profiler = obs::Profiler::Global();
  return {profiler.RegionSnapshot(), profiler.OpSnapshot()};
}

ProfileDelta ProfileSince(const ProfileDelta& before) {
  ProfileDelta delta = ProfileNow();
  for (auto& [name, r] : delta.regions) {
    const auto it = before.regions.find(name);
    if (it == before.regions.end()) continue;
    const obs::RegionProfile& b = it->second;
    r.regions -= b.regions;
    r.dispatched -= b.dispatched;
    r.inline_runs -= b.inline_runs;
    r.chunks -= b.chunks;
    r.items -= b.items;
    r.wall_us -= b.wall_us;
    r.busy_us -= b.busy_us;
    for (size_t lane = 0;
         lane < r.lane_busy_us.size() && lane < b.lane_busy_us.size();
         ++lane) {
      r.lane_busy_us[lane] -= b.lane_busy_us[lane];
    }
  }
  for (auto& [name, op] : delta.ops) {
    const auto it = before.ops.find(name);
    if (it == before.ops.end()) continue;
    op.dispatches -= it->second.dispatches;
    op.bytes_moved -= it->second.bytes_moved;
    op.items -= it->second.items;
  }
  return delta;
}

Ledger::Timer::Timer(Ledger* ledger, const std::string& layer)
    : ledger_(ledger), layer_(layer), start_(Clock::now()) {
  if (ledger_->traced_) {
    const std::string span = "suite." + layer_;
    span_ = std::make_unique<obs::ScopedTrace>(span.c_str());
  }
}

Ledger::Timer::~Timer() {
  span_.reset();
  ledger_->AddCall(layer_, MsSince(start_));
}

const std::vector<double>& Ledger::Calls(const std::string& layer) const {
  static const std::vector<double> kNone;
  const auto it = calls_.find(layer);
  return it == calls_.end() ? kNone : it->second;
}

void Ledger::AddCall(const std::string& layer, double ms) {
  calls_[layer].push_back(ms);
}

void Ledger::SetE2e(const std::string& name, double value) {
  O2SR_CHECK(InCatalogue(E2eMetrics(), name));
  e2e_[name] = value;
}

void Ledger::SetLayer(const std::string& name, double value) {
  O2SR_CHECK(InCatalogue(LayerMetrics(), name));
  layers_[name] = value;
}

void Ledger::Fail(const std::string& what, uint64_t count) {
  failed_ += count;
  if (failures_.size() < 32) failures_.push_back(what);
  std::cerr << "o2sr_bench: check failed (x" << count << "): " << what
            << "\n";
}

void PublishMedianMs(Ledger* ledger, const std::string& layer) {
  ledger->SetLayer(layer + "_ms", Median(ledger->Calls(layer)));
}

void PublishTrainerSpans(Ledger* ledger) {
  std::map<std::string, std::vector<double>> by_name;
  for (const obs::TraceSpan& span : obs::TraceRecorder::Global().Snapshot()) {
    if (span.dur_us >= 0) {
      by_name[span.name].push_back(static_cast<double>(span.dur_us) / 1e3);
    }
  }
  const auto median_of = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : Median(it->second);
  };
  ledger->SetLayer("core.epoch_ms_p50", median_of("train.epoch"));
  ledger->SetLayer("core.forward_backward_ms",
                   median_of("train.forward_backward"));
  ledger->SetLayer("core.optimizer_step_ms", median_of("train.optimizer_step"));
  ledger->SetLayer("graphs.model_build_ms", median_of("model.build"));
  ledger->SetLayer("core.build_serving_table_ms",
                   median_of("model.build_serving_table"));
}

void PublishKernelProfile(Ledger* ledger, const ProfileDelta& delta,
                          int repetitions, double loop_ms) {
  const double reps = std::max(1, repetitions);
  const auto region = [&](const char* name) -> const obs::RegionProfile* {
    const auto it = delta.regions.find(name);
    return it == delta.regions.end() ? nullptr : &it->second;
  };
  const auto op = [&](const char* name) -> const obs::OpProfile* {
    const auto it = delta.ops.find(name);
    return it == delta.ops.end() ? nullptr : &it->second;
  };
  for (const char* name : {"nn.matmul", "nn.matmul_ta", "nn.matmul_tb",
                           "nn.gather_rows", "nn.concat_cols"}) {
    const obs::RegionProfile* r = region(name);
    ledger->SetLayer(std::string(name) + ".wall_ms",
                     r == nullptr ? 0.0 : r->wall_us / 1e3 / reps);
  }
  for (const char* name : {"tape.gather_rows", "tape.concat_cols"}) {
    const obs::OpProfile* o = op(name);
    ledger->SetLayer(std::string(name) + ".bytes_moved",
                     o == nullptr ? 0.0 : o->bytes_moved / reps);
  }
  double dispatches = 0.0;
  for (const auto& [name, o] : delta.ops) dispatches += o.dispatches;
  ledger->SetLayer("nn.ops_dispatched", dispatches / reps);

  double dispatched = 0.0, inline_runs = 0.0, chunks = 0.0;
  double wall_us = 0.0, busy_us = 0.0, idle_us = 0.0, lane_wall_us = 0.0;
  double lane0_us = 0.0, worker_us = 0.0;
  int workers = 0;
  for (const auto& [name, r] : delta.regions) {
    dispatched += r.dispatched;
    inline_runs += r.inline_runs;
    chunks += r.chunks;
    wall_us += r.wall_us;
    busy_us += r.busy_us;
    idle_us += r.IdleUs();
    lane_wall_us += static_cast<double>(r.lane_busy_us.size()) * r.wall_us;
    if (!r.lane_busy_us.empty()) lane0_us += r.lane_busy_us[0];
    for (size_t lane = 1; lane < r.lane_busy_us.size(); ++lane) {
      worker_us += r.lane_busy_us[lane];
    }
    workers = std::max(workers, static_cast<int>(r.lane_busy_us.size()) - 1);
  }
  ledger->SetLayer("exec.regions_dispatched", dispatched / reps);
  ledger->SetLayer("exec.regions_inline", inline_runs / reps);
  ledger->SetLayer("exec.chunks", chunks / reps);
  const obs::RegionProfile* ta = region("nn.matmul_ta");
  ledger->SetLayer("exec.matmul_ta.items_per_region",
                   ta == nullptr || ta->regions == 0
                       ? 0.0
                       : static_cast<double>(ta->items) / ta->regions);
  ledger->SetLayer("exec.lane_efficiency",
                   lane_wall_us > 0.0 ? busy_us / lane_wall_us : 0.0);
  ledger->SetLayer("exec.idle_ms", idle_us / 1e3 / reps);
  const double worker_mean = workers > 0 ? worker_us / workers : 0.0;
  ledger->SetLayer("exec.lane0_busy_ratio",
                   worker_mean > 0.0 ? lane0_us / worker_mean : 0.0);
  if (loop_ms > 0.0) {
    ledger->SetLayer("exec.outside_regions_ms",
                     std::max(0.0, loop_ms - wall_us / 1e3 / reps));
  }
}

}  // namespace o2sr::suite
