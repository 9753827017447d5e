#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/env.h"
#include "obs/json.h"

namespace o2sr::obs {

namespace {

const char* RegionName(const char* name) {
  // Unnamed fine-grained kernel regions (per-matmul, per-elementwise) all
  // aggregate under one bucket: their individual identity is the op
  // counters' job, the region axis cares about dispatch behavior.
  return name != nullptr ? name : "(kernel)";
}

}  // namespace

double RegionProfile::Efficiency() const {
  const int64_t lanes = static_cast<int64_t>(lane_busy_us.size());
  if (lanes == 0 || wall_us <= 0) return 0.0;
  return static_cast<double>(busy_us) /
         (static_cast<double>(lanes) * static_cast<double>(wall_us));
}

Profiler& Profiler::Global() {
  static Profiler* profiler = [] {
    auto* p = new Profiler();
    if (!common::EnvString(common::Knob::kProfileFile).empty()) {
      p->Enable(true);
      std::atexit([] {
        const std::string path = common::EnvString(common::Knob::kProfileFile);
        if (path.empty()) return;
        const common::Status st = Global().WriteReport(path);
        if (!st.ok()) {
          std::fprintf(stderr, "[W profiler.cc] %s\n",
                       st.ToString().c_str());
        }
      });
    }
    return p;
  }();
  return *profiler;
}

void Profiler::RecordDispatchedRegion(const char* name, int64_t items,
                                      int64_t chunks, int64_t wall_us,
                                      const int64_t* lane_busy_us,
                                      int lanes) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  RegionProfile& region = regions_[RegionName(name)];
  ++region.regions;
  ++region.dispatched;
  region.chunks += static_cast<uint64_t>(chunks);
  region.items += static_cast<uint64_t>(items);
  const uint64_t n = static_cast<uint64_t>(items);
  if (region.min_items == 0 || n < region.min_items) region.min_items = n;
  region.max_items = std::max(region.max_items, n);
  region.wall_us += wall_us;
  if (region.lane_busy_us.size() < static_cast<size_t>(lanes)) {
    region.lane_busy_us.resize(static_cast<size_t>(lanes), 0);
  }
  for (int lane = 0; lane < lanes; ++lane) {
    region.lane_busy_us[static_cast<size_t>(lane)] += lane_busy_us[lane];
    region.busy_us += lane_busy_us[lane];
  }
}

void Profiler::RecordInlineRegion(const char* name, int64_t items,
                                  int64_t chunks) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  RegionProfile& region = regions_[RegionName(name)];
  ++region.regions;
  ++region.inline_runs;
  region.chunks += static_cast<uint64_t>(chunks);
  region.items += static_cast<uint64_t>(items);
  const uint64_t n = static_cast<uint64_t>(items);
  if (region.min_items == 0 || n < region.min_items) region.min_items = n;
  region.max_items = std::max(region.max_items, n);
}

void Profiler::RecordOp(const char* name, uint64_t bytes_moved,
                        uint64_t items) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  OpProfile& op = ops_[name];
  ++op.dispatches;
  op.bytes_moved += bytes_moved;
  op.items += items;
}

std::map<std::string, RegionProfile> Profiler::RegionSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return regions_;
}

std::map<std::string, OpProfile> Profiler::OpSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

std::string Profiler::ReportJson() const {
  const auto regions = RegionSnapshot();
  const auto ops = OpSnapshot();

  std::string out = "{\"regions\":{";
  bool first = true;
  for (const auto& [name, r] : regions) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(name) + ":{";
    out += "\"regions\":" + JsonNum(r.regions);
    out += ",\"dispatched\":" + JsonNum(r.dispatched);
    out += ",\"inline_runs\":" + JsonNum(r.inline_runs);
    out += ",\"chunks\":" + JsonNum(r.chunks);
    out += ",\"items\":" + JsonNum(r.items);
    out += ",\"min_items\":" + JsonNum(r.min_items);
    out += ",\"max_items\":" + JsonNum(r.max_items);
    out += ",\"wall_ms\":" +
           JsonFixed(static_cast<double>(r.wall_us) / 1000.0, 3);
    out += ",\"busy_ms\":" +
           JsonFixed(static_cast<double>(r.busy_us) / 1000.0, 3);
    out += ",\"idle_ms\":" +
           JsonFixed(static_cast<double>(r.IdleUs()) / 1000.0, 3);
    out += ",\"efficiency\":" + JsonFixed(r.Efficiency(), 4);
    out += ",\"lanes\":[";
    for (size_t lane = 0; lane < r.lane_busy_us.size(); ++lane) {
      if (lane > 0) out += ",";
      out += "{\"lane\":" + JsonNum(static_cast<uint64_t>(lane)) +
             ",\"busy_ms\":" +
             JsonFixed(static_cast<double>(r.lane_busy_us[lane]) / 1000.0,
                       3) +
             "}";
    }
    out += "]}";
  }
  out += "},\"ops\":{";
  first = true;
  for (const auto& [name, op] : ops) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(name) + ":{";
    out += "\"dispatches\":" + JsonNum(op.dispatches);
    out += ",\"bytes_moved\":" + JsonNum(op.bytes_moved);
    out += ",\"items\":" + JsonNum(op.items);
    out += "}";
  }
  out += "}}";
  return out;
}

common::Status Profiler::WriteReport(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return common::UnavailableError("cannot open profile file '" + path +
                                    "' for writing");
  }
  const std::string json = ReportJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return common::UnavailableError("short write to profile file '" + path +
                                    "'");
  }
  return common::Status::Ok();
}

void Profiler::ResetForTest() {
  std::lock_guard<std::mutex> lock(mutex_);
  regions_.clear();
  ops_.clear();
}

}  // namespace o2sr::obs
