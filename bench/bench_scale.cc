// Out-of-core dataset scale curves: how ingest (streaming order
// generation into checksummed shards), read-back aggregation and graph
// construction behave as the workload grows from test-sized cities to the
// paper's full §IV-A1 scale (39,465 stores / 23.6M+ orders), and what peak
// RSS that costs against O2SR_MEM_BUDGET_MB.
//
//   O2SR_BENCH_SCALE=small     toy city; the committed regression baseline
//   O2SR_BENCH_SCALE=standard  the repo's default experiment city
//   O2SR_BENCH_SCALE=paper     sim::PaperScaleConfig() — the only bench
//                              that materializes the paper's order volume,
//                              which is exactly why it must stream
//
// BENCH_scale.json records workload shape (stores/orders/shards/blocks,
// exact-matched by tools/bench_diff), wall clocks per stage, and
// peak_rss_mb (direction-aware: growth is a regression). ci.sh gates the
// committed small baseline and, for the paper artifact, asserts the
// acceptance floor: >= 39,465 stores, >= 23M orders, RSS under budget.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "bench_common.h"
#include "common/check.h"
#include "common/env.h"
#include "features/stream_aggregate.h"
#include "graphs/hetero_graph.h"
#include "graphs/mobility_graph.h"
#include "obs/trace.h"
#include "sim/stream.h"
#include "sim/world.h"

namespace {

using namespace o2sr;

// Peak resident set (VmHWM) of this process, in MiB.
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

sim::SimConfig ScaleConfig(bench::Scale scale) {
  switch (scale) {
    case bench::Scale::kSmall: {
      sim::SimConfig config;
      config.city_width_m = 4000.0;
      config.city_height_m = 4000.0;  // 8x8 = 64 regions
      config.num_store_types = 12;
      config.num_stores = 400;
      config.num_couriers = 220;
      config.num_days = 4;
      config.peak_orders_per_region_slot = 4.0;
      config.seed = 2022;
      return config;
    }
    case bench::Scale::kStandard: {
      sim::SimConfig config;  // the repo's default experiment city
      config.num_days = 8;
      config.seed = 2022;
      return config;
    }
    case bench::Scale::kPaper:
      return sim::PaperScaleConfig();
  }
  return sim::SimConfig();
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main() {
  bench::BenchReport report(
      "scale", "Out-of-core dataset: ingest, read-back and graph build",
      "dataset scale of §IV-A1 (39,465 stores / 23.6M orders)");
  const bench::Scale scale = bench::CurrentScale();
  const sim::SimConfig config = ScaleConfig(scale);

  sim::StreamOptions options;
  options.data_dir = common::EnvString(
      common::Knob::kDataDir,
      std::string("bench_scale_data_") + bench::ScaleName(scale));

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  sim::StreamResult ingest;
  {
    O2SR_TRACE_SCOPE("bench.ingest");
    auto result = sim::StreamGenerate(config, options);
    O2SR_CHECK_OK(result.status());
    ingest = *result;
  }
  const auto t1 = clock::now();

  sim::SpillReadReport read_report;
  features::OrderStats stats(0, 0);
  int num_regions = 0;
  int num_types = 0;
  {
    O2SR_TRACE_SCOPE("bench.aggregate");
    auto reader = sim::DatasetReader::Open(config, ingest.data_dir,
                                           sim::SpillReadOptions());
    O2SR_CHECK_OK(reader.status());
    num_regions = reader->world().num_regions();
    num_types = reader->world().num_types();
    auto aggregated = features::AggregateSpill(*reader, &read_report);
    O2SR_CHECK_OK(aggregated.status());
    stats = std::move(*aggregated);
  }
  const auto t2 = clock::now();

  size_t hetero_nodes = 0;
  size_t mobility_edges = 0;
  {
    O2SR_TRACE_SCOPE("bench.graphs");
    // The aggregate-consuming build path: an orders-free world dataset
    // plus streamed stats — no raw order log in memory, ever.
    auto reader = sim::DatasetReader::Open(config, ingest.data_dir,
                                           sim::SpillReadOptions());
    O2SR_CHECK_OK(reader.status());
    const sim::Dataset world_data = sim::WorldDataset(reader->world());
    const graphs::HeteroMultiGraph hetero(world_data, stats);
    const graphs::MobilityMultiGraph mobility(stats);
    hetero_nodes = hetero.num_store_nodes() + hetero.num_customer_nodes();
    mobility_edges = mobility.TotalEdges();
  }
  const auto t3 = clock::now();

  const double peak_rss_mb = PeakRssMb();
  const double budget_mb = ingest.resolved_mem_budget_mb;
  std::printf(
      "\n  stores=%d  regions=%d  types=%d  epochs=%d\n"
      "  orders=%llu  shards=%d x %llu-row avg  blocks=%d x %d regions\n"
      "  ingest=%.2fs  aggregate=%.2fs  graphs=%.2fs\n"
      "  hetero_nodes=%zu  mobility_edges=%zu\n"
      "  peak_rss=%.1f MiB  budget=%.0f MiB  %s\n\n",
      config.num_stores, num_regions, num_types, ingest.epochs,
      static_cast<unsigned long long>(ingest.total_rows),
      ingest.shards_written + ingest.shards_skipped,
      static_cast<unsigned long long>(
          ingest.total_rows /
          std::max(1, ingest.shards_written + ingest.shards_skipped)),
      ingest.num_blocks, ingest.block_regions, Seconds(t0, t1),
      Seconds(t1, t2), Seconds(t2, t3), hetero_nodes, mobility_edges,
      peak_rss_mb, budget_mb,
      peak_rss_mb <= budget_mb ? "(within budget)" : "OVER BUDGET");

  report.AddValue("stores", config.num_stores);
  report.AddValue("regions", num_regions);
  report.AddValue("types", num_types);
  report.AddValue("epochs", ingest.epochs);
  report.AddValue("block_regions", ingest.block_regions);
  report.AddValue("blocks", ingest.num_blocks);
  report.AddValue("shards", ingest.shards_written + ingest.shards_skipped);
  report.AddValue("orders", static_cast<double>(ingest.total_rows));
  report.AddValue("mem_budget_mb", budget_mb);
  report.AddValue("peak_rss_mb", peak_rss_mb);
  report.AddValue("gen_wall_s", Seconds(t0, t1));
  report.AddValue("read_wall_s", Seconds(t1, t2));
  report.AddValue("graph_wall_s", Seconds(t2, t3));
  report.AddValue("quarantined", read_report.quarantined);
  return 0;
}
