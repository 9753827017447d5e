// ingest: a user turns a large city's order log into graphs without holding
// the orders in memory. One pass = StreamGenerate into a fresh
// directory, DatasetReader::Open + AggregateSpill, then the hetero and
// mobility graphs from the aggregates. No nn and no training run here.
// The end-to-end numbers come from the run's fastest pass (see RepeatFor).

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "features/stream_aggregate.h"
#include "graphs/hetero_graph.h"
#include "graphs/mobility_graph.h"
#include "sim/stream.h"
#include "sim/world.h"
#include "suite.h"

namespace o2sr::suite {
namespace {

namespace fs = std::filesystem;

// A quarter of the paper's city (sim::PaperScaleConfig): its store
// density, store types, courier ratio and order rate on 16 km x 16 km
// (1,024 regions), one day of orders. A pass then takes about a second,
// so a 15 s run has 11 to 14 passes to take the fastest from; the shorter
// the pass, the likelier one falls in a quiet moment of a shared host.
sim::SimConfig IngestCity(const RunOptions& options) {
  sim::SimConfig city = sim::PaperScaleConfig();
  if (options.smoke) {
    city.city_width_m = 4000.0;
    city.city_height_m = 4000.0;
    city.num_store_types = 12;
    city.num_stores = 400;
    city.num_couriers = 220;
  } else {
    city.city_width_m /= 2;
    city.city_height_m /= 2;
    city.num_stores /= 4;
    city.num_couriers /= 4;
  }
  city.num_days = 1;
  city.seed = SubSeed(options.seed, 21);
  return city;
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

}  // namespace

void RunIngest(const RunOptions& options, Ledger* ledger) {
  const sim::SimConfig city = IngestCity(options);
  const std::string dir = options.work_dir + "/ingest";

  // Set-up, before every pass: the static world (city, catalog, stores,
  // taste, couriers) that StreamGenerate and DatasetReader::Open each
  // rebuild from the config.
  std::vector<double> setup_s;
  const auto set_up = [&](int) {
    const Clock::time_point start = Clock::now();
    Rng rng(city.seed);
    const sim::World world = ledger->Time("sim.build_world", [&] {
      return sim::BuildWorld(city, sim::WorldOverrides(), rng);
    });
    setup_s.push_back(SecondsSince(start));
    return true;
  };

  sim::StreamOptions stream_options;
  stream_options.data_dir = dir;
  stream_options.mem_budget_mb = 2048;

  std::vector<double> orders_per_s;
  double shard_bytes = 0.0;
  const auto pass = [&](int rep) {
    std::error_code error;
    fs::remove_all(dir, error);
    if (error) {
      ledger->Fail("cannot clear " + dir + ": " + error.message());
      return false;
    }
    ledger->Attempt();
    const Clock::time_point start = Clock::now();
    auto ingest = ledger->Time("sim.stream_generate", [&] {
      return sim::StreamGenerate(city, stream_options);
    });
    const double generate_s = SecondsSince(start);
    if (!ingest.ok()) {
      ledger->Fail("StreamGenerate: " + ingest.status().ToString());
      return false;
    }
    auto reader = ledger->Time("sim.reader_open", [&] {
      return sim::DatasetReader::Open(city, dir, sim::SpillReadOptions());
    });
    if (!reader.ok()) {
      ledger->Fail("DatasetReader::Open: " + reader.status().ToString());
      return false;
    }
    sim::SpillReadReport read_report;
    auto stats = ledger->Time("features.aggregate_spill", [&] {
      return features::AggregateSpill(*reader, &read_report);
    });
    if (!stats.ok()) {
      ledger->Fail("AggregateSpill: " + stats.status().ToString());
      return false;
    }
    const sim::Dataset world_data = sim::WorldDataset(reader->world());
    const graphs::HeteroMultiGraph hetero = ledger->Time("graphs.hetero", [&] {
      return graphs::HeteroMultiGraph(world_data, *stats);
    });
    const graphs::MobilityMultiGraph mobility = ledger->Time(
        "graphs.mobility", [&] { return graphs::MobilityMultiGraph(*stats); });

    // Every row written is read back, none quarantined, and the aggregates
    // count each order exactly once.
    double aggregated = 0.0;
    for (int s = 0; s < stats->num_regions(); ++s) {
      aggregated += stats->TotalStoreRegionOrders(s);
    }
    const double rows = static_cast<double>(ingest->total_rows);
    if (ingest->total_rows == 0 || read_report.rows != ingest->total_rows ||
        read_report.quarantined != 0 || aggregated != rows) {
      ledger->Fail("ingest read back " + std::to_string(read_report.rows) +
                   " rows (" + std::to_string(read_report.quarantined) +
                   " quarantined, " + std::to_string(aggregated) +
                   " aggregated) of " + std::to_string(ingest->total_rows));
    }
    if (hetero.num_store_nodes() == 0 || mobility.TotalEdges() == 0) {
      ledger->Fail("graphs built from the aggregates are empty");
    }
    if (rep == 0) {
      ledger->SetE2e("peak_rss_mb", PeakRssMb());
      shard_bytes = DirectoryBytes(dir);
    } else {
      orders_per_s.push_back(rows / generate_s);
    }
    return true;
  };
  const std::vector<double> pass_ms = RepeatFor(options.seconds, set_up, pass);
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  ledger->SetE2e("setup_s", Median(setup_s));
  if (pass_ms.empty()) return;

  ledger->SetE2e("latency_ms", Quantile(pass_ms, 0.0));
  ledger->SetE2e("throughput", Quantile(orders_per_s, 1.0));
  if (!ledger->traced()) return;
  PublishMedianMs(ledger, "sim.build_world");
  PublishMedianMs(ledger, "sim.stream_generate");
  PublishMedianMs(ledger, "sim.reader_open");
  PublishMedianMs(ledger, "features.aggregate_spill");
  PublishMedianMs(ledger, "graphs.hetero");
  PublishMedianMs(ledger, "graphs.mobility");
  ledger->SetLayer("sim.shard_bytes", shard_bytes);
}

}  // namespace o2sr::suite
