// Train once, serve many: the offline-train / online-serve split.
//
//   ./build/examples/serve_demo train /tmp/model.snap     # train + export
//   ./build/examples/serve_demo serve /tmp/model.snap     # load + rank
//   ./build/examples/serve_demo chaos /tmp/model.snap     # resilience drill
//   ./build/examples/serve_demo tenants /tmp/model.snap   # multi-tenant drill
//
// `train` trains O2-SiteRec on a small synthetic city, exports a model
// snapshot, and prints ranked recommendations straight from the trained
// model. `serve` — typically a *different process* — rebuilds the model
// structure without training (PrepareServing), overwrites the parameters
// from the snapshot, and prints the same queries from a ServingEngine.
// The two outputs are bit-identical (%.17g round-trips doubles exactly),
// which ci.sh verifies with a literal diff.
//
// `chaos` is the CI resilience drill (DESIGN.md §10): run it under an
// O2SR_FAULTS recipe (snapshot bitflips, scorer delays and errors) and it
// drives the serving engine through the failure plan — faulty initial
// load with retry, a corrupted snapshot swap (must be rejected and
// quarantined while the original model keeps serving), a promoted swap,
// and deadline-squeezed queries that land on the degraded tiers. It exits
// 0 only when no response carried a wrong-epoch tag or a wrong fresh
// score, the corrupt snapshot was quarantined, and degraded tiers
// actually served; the summary line is machine-checked by ci.sh.
//
// `tenants` is the multi-tenant concurrency drill (DESIGN.md §14): four
// city tenants restored from the same snapshot are hosted in one
// TenantRegistry while four driver threads round-robin batched requests
// (RankSitesBatch) across them and a storm thread hot-swaps one victim
// tenant repeatedly. It exits 0 only when every response succeeded, every
// swap promoted, the victim's epoch advanced by exactly the number of
// swaps while the bystanders stayed at epoch 1, and each engine's
// per-shard counters sum to its globals; the summary line is
// machine-checked by ci.sh.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "obs/log.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "serve/tenant.h"
#include "sim/dataset.h"

namespace {

using namespace o2sr;

// Both processes derive the identical world from these configs; the
// snapshot's config fingerprint enforces it.
sim::SimConfig WorldConfig() {
  sim::SimConfig cfg;
  cfg.city_width_m = 5000.0;
  cfg.city_height_m = 5000.0;
  cfg.num_store_types = 10;
  cfg.num_stores = 500;
  cfg.num_couriers = 160;
  cfg.num_days = 4;
  cfg.seed = 77;
  return cfg;
}

core::O2SiteRecConfig ModelConfig() {
  core::O2SiteRecConfig cfg;
  cfg.rec.embedding_dim = 24;
  cfg.rec.node_heads = 4;
  cfg.epochs = 12;
  cfg.seed = 9;
  return cfg;
}

uint64_t ConfigHash() {
  return serve::CombineFingerprints(serve::FingerprintOf(WorldConfig()),
                                    serve::FingerprintOf(ModelConfig()));
}

// The fixed query workload both modes print: top-8 regions for the first
// three store types over every region of the city.
void PrintRankings(const serve::ServingEngine& engine, int num_regions,
                   int num_types) {
  std::vector<int> all_regions(num_regions);
  for (int r = 0; r < num_regions; ++r) all_regions[r] = r;
  for (int type = 0; type < 3 && type < num_types; ++type) {
    const std::vector<serve::RankedSite> ranked =
        engine.RankSites(type, all_regions, 8).value();
    for (size_t i = 0; i < ranked.size(); ++i) {
      std::printf("type=%d rank=%zu region=%d score=%.17g\n", type, i + 1,
                  ranked[i].region, ranked[i].score);
    }
  }
}

int Train(const std::string& snapshot_path) {
  const sim::Dataset data = sim::GenerateDataset(WorldConfig());
  const core::InteractionList interactions = eval::BuildInteractions(data);
  const eval::Split split =
      eval::SplitInteractions(data, interactions, {0.8, 1});

  core::O2SiteRecRecommender model(ModelConfig());
  core::TrainContext ctx;
  ctx.data = &data;
  ctx.visible_orders = &split.train_orders;
  ctx.train = &split.train;
  O2SR_CHECK_OK(model.Train(ctx));
  O2SR_LOG(INFO) << "Trained " << model.Name() << ".";

  serve::SnapshotMeta meta;
  meta.model_name = model.Name();
  meta.config_hash = ConfigHash();
  meta.num_regions = data.num_regions();
  meta.num_types = data.num_types();
  meta.type_norm = serve::TypeNormalizers(data.num_types(), interactions);
  O2SR_CHECK_OK(serve::ExportSnapshot(snapshot_path, meta, model));
  O2SR_LOG(INFO) << "Snapshot exported to " << snapshot_path << ".";

  const auto engine = serve::ServingEngine::Create(&model).value();
  PrintRankings(*engine, data.num_regions(), data.num_types());
  return 0;
}

int Serve(const std::string& snapshot_path) {
  // Rebuild the same world and model *structure* — no training epochs.
  const sim::Dataset data = sim::GenerateDataset(WorldConfig());
  const eval::Split split =
      eval::SplitInteractions(data, eval::BuildInteractions(data), {0.8, 1});

  core::O2SiteRecRecommender model(ModelConfig());
  core::TrainContext ctx;
  ctx.data = &data;
  ctx.visible_orders = &split.train_orders;
  ctx.train = &split.train;
  O2SR_CHECK_OK(model.PrepareServing(ctx));

  const serve::Snapshot snapshot =
      serve::LoadSnapshot(snapshot_path).value();
  O2SR_CHECK_OK(serve::RestoreModel(snapshot, model, ConfigHash()));
  O2SR_LOG(INFO) << "Serving " << snapshot.meta.model_name
                 << " from snapshot.";

  const auto engine = serve::ServingEngine::Create(&model).value();
  PrintRankings(*engine, data.num_regions(), data.num_types());
  return 0;
}

// Byte-level copy helpers for staging corrupted / pristine snapshot
// copies; plain stdio on purpose — the fault injector's read sites live in
// the serving path, not here.
bool ReadFileBytes(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return written == bytes.size();
}

struct ChaosTally {
  int responses = 0;
  int fresh = 0;
  int stale = 0;
  int prior = 0;
  int shed = 0;
  int failed = 0;
  int wrong_epoch = 0;
  int wrong_score = 0;
};

int Chaos(const std::string& snapshot_path) {
  const sim::Dataset data = sim::GenerateDataset(WorldConfig());
  const core::InteractionList interactions = eval::BuildInteractions(data);
  const eval::Split split =
      eval::SplitInteractions(data, interactions, {0.8, 1});

  core::O2SiteRecRecommender model(ModelConfig());
  core::TrainContext ctx;
  ctx.data = &data;
  ctx.visible_orders = &split.train_orders;
  ctx.train = &split.train;
  O2SR_CHECK_OK(model.PrepareServing(ctx));

  // A fresh prepared model per swap attempt (SwapSnapshot consumes it).
  const auto MakeStaged = [&] {
    auto staged =
        std::make_unique<core::O2SiteRecRecommender>(ModelConfig());
    O2SR_CHECK_OK(staged->PrepareServing(ctx));
    return staged;
  };

  // Initial load rides out injected read faults: corruption must surface
  // as a clean Status (never serve silently), and a retry redraws.
  serve::Snapshot snapshot;
  bool loaded = false;
  for (int attempt = 0; attempt < 20 && !loaded; ++attempt) {
    auto candidate = serve::LoadSnapshot(snapshot_path);
    if (candidate.ok()) {
      snapshot = *std::move(candidate);
      loaded = true;
    }
  }
  if (!loaded) {
    std::fprintf(stderr, "chaos: snapshot never loaded cleanly\n");
    return 1;
  }
  O2SR_CHECK_OK(serve::RestoreModel(snapshot, model, ConfigHash()));

  serve::ServingOptions options;
  options.cache_capacity = 4096;
  options.prior =
      serve::BuildPopularityPrior(data.num_types(), interactions);
  const auto engine = serve::ServingEngine::Create(&model, options).value();

  // Ground truth straight from the restored model (no injection sites on
  // direct Predict): any fresh-tier response that disagrees means
  // corruption leaked through the fault storm.
  std::vector<int> candidates(data.num_regions());
  for (int r = 0; r < data.num_regions(); ++r) candidates[r] = r;
  std::vector<std::unordered_map<int, double>> golden(3);
  for (int type = 0; type < 3; ++type) {
    core::InteractionList pairs;
    for (int r : candidates) {
      if (!model.CanScoreRegion(r)) continue;
      core::Interaction it;
      it.region = r;
      it.type = type;
      pairs.push_back(it);
    }
    const auto scores = model.Predict(pairs).value();
    for (size_t i = 0; i < pairs.size(); ++i) {
      golden[type][pairs[i].region] = scores[i];
    }
  }

  ChaosTally tally;
  const auto run = [&](int type, serve::Deadline deadline) {
    serve::RankRequest request;
    request.type = type;
    request.candidates = candidates;
    request.k = 8;
    request.deadline = deadline;
    const auto response = engine->Rank(request);
    if (!response.ok()) {
      if (response.status().code() ==
          common::StatusCode::kResourceExhausted) {
        ++tally.shed;
      } else {
        ++tally.failed;
      }
      return false;
    }
    ++tally.responses;
    if (response->epoch != engine->epoch()) ++tally.wrong_epoch;
    switch (response->tier) {
      case serve::ServeTier::kFresh:
        ++tally.fresh;
        for (const serve::RankedSite& site : response->sites) {
          const auto it = golden[type].find(site.region);
          if (it == golden[type].end() || it->second != site.score) {
            ++tally.wrong_score;
          }
        }
        break;
      case serve::ServeTier::kStaleCache:
        ++tally.stale;
        break;
      case serve::ServeTier::kPrior:
        ++tally.prior;
        break;
    }
    return true;
  };
  // Injected scorer errors can fail a cold query outright (nothing cached
  // yet to degrade onto); a bounded retry redraws — the point is that
  // every outcome is a clean Status.
  const auto run_until_served = [&](int type) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (run(type, serve::Deadline::Infinite())) return true;
    }
    return false;
  };

  // Phase A: warm every (type, region) pair at epoch 1.
  for (int type = 0; type < 3; ++type) {
    if (!run_until_served(type)) {
      std::fprintf(stderr, "chaos: warmup for type %d never served\n", type);
      return 1;
    }
  }

  // Phase B: a swap of a corrupted snapshot must be rejected + quarantined
  // while the original model keeps serving.
  int quarantined = 0;
  {
    std::string bytes;
    if (!ReadFileBytes(snapshot_path, &bytes) || bytes.empty()) return 1;
    bytes[bytes.size() / 2] ^= 0x5a;
    const std::string corrupt_path = snapshot_path + ".chaos_corrupt";
    if (!WriteFileBytes(corrupt_path, bytes)) return 1;
    const auto report =
        engine->SwapSnapshot(corrupt_path, MakeStaged(), ConfigHash());
    if (report.ok() && !report->promoted &&
        !report->quarantine_path.empty()) {
      quarantined = 1;
    }
    run_until_served(0);  // the displaced-nothing engine still answers
  }

  // Phase C: a pristine copy promotes (retried: an injected read fault
  // quarantines the copy, so each attempt stages a new one).
  bool promoted = false;
  for (int attempt = 0; attempt < 5 && !promoted; ++attempt) {
    std::string bytes;
    if (!ReadFileBytes(snapshot_path, &bytes)) return 1;
    const std::string copy_path = snapshot_path + ".chaos_promote" +
                                  std::to_string(attempt);
    if (!WriteFileBytes(copy_path, bytes)) return 1;
    const auto report =
        engine->SwapSnapshot(copy_path, MakeStaged(), ConfigHash());
    promoted = report.ok() && report->promoted;
  }

  // Phase D: deadline-squeezed queries. The injected scorer delay pushes
  // every cache-miss query past its budget, landing it on the stale tier
  // (epoch bumped in phase C, so the warm entries are exactly stale).
  for (int round = 0; round < 10; ++round) {
    for (int type = 0; type < 3; ++type) {
      run(type, serve::Deadline::AfterMs(2.0));
    }
  }
  // And a few requests that are already out of budget: must shed, cleanly.
  for (int i = 0; i < 3; ++i) run(0, serve::Deadline::AfterMs(-1.0));

  const int degraded = tally.stale + tally.prior;
  std::printf(
      "chaos: responses=%d fresh=%d stale=%d prior=%d shed=%d failed=%d "
      "wrong_epoch=%d wrong_score=%d quarantined=%d promoted=%d health=%s\n",
      tally.responses, tally.fresh, tally.stale, tally.prior, tally.shed,
      tally.failed, tally.wrong_epoch, tally.wrong_score, quarantined,
      promoted ? 1 : 0, serve::ServeHealthName(engine->health()));
  const bool ok = tally.wrong_epoch == 0 && tally.wrong_score == 0 &&
                  quarantined == 1 && promoted && degraded > 0;
  return ok ? 0 : 1;
}

// True when the engine's per-shard counter blocks sum to its global
// relaxed counters — the invariant every concurrent test holds the
// sharded front end to.
bool ShardSumsMatch(const serve::ServingEngine& engine) {
  uint64_t requests = 0, shed = 0, pairs = 0, degraded = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const serve::EngineShardStats stats = engine.ShardStats(s);
    requests += stats.requests;
    shed += stats.shed;
    pairs += stats.pairs_scored;
    degraded += stats.degraded_responses;
  }
  return requests == engine.requests_count() &&
         shed == engine.shed_count() &&
         pairs == engine.pairs_scored_count() &&
         degraded == engine.degraded_count();
}

int Tenants(const std::string& snapshot_path) {
  const sim::Dataset data = sim::GenerateDataset(WorldConfig());
  const core::InteractionList interactions = eval::BuildInteractions(data);
  const eval::Split split =
      eval::SplitInteractions(data, interactions, {0.8, 1});
  core::TrainContext ctx;
  ctx.data = &data;
  ctx.visible_orders = &split.train_orders;
  ctx.train = &split.train;

  // Every tenant (and every staged swap) restores the same snapshot: the
  // drill is about isolation of the serving layer, not model diversity.
  const auto MakeRestored = [&] {
    auto model = std::make_unique<core::O2SiteRecRecommender>(ModelConfig());
    O2SR_CHECK_OK(model->PrepareServing(ctx));
    const serve::Snapshot snapshot =
        serve::LoadSnapshot(snapshot_path).value();
    O2SR_CHECK_OK(serve::RestoreModel(snapshot, *model, ConfigHash()));
    return model;
  };

  constexpr int kTenants = 4;
  constexpr int kDrivers = 4;
  constexpr int kSwaps = 6;
  const int batch =
      static_cast<int>(common::EnvInt(common::Knob::kServeBatch, 8));

  serve::TenantRegistry registry;
  for (int i = 0; i < kTenants; ++i) {
    serve::ServingOptions options;
    options.cache_capacity = 4096;
    options.num_shards = kDrivers;
    options.prior =
        serve::BuildPopularityPrior(data.num_types(), interactions);
    O2SR_CHECK_OK(registry.Register("city" + std::to_string(i),
                                    MakeRestored(), options));
  }

  std::vector<int> candidates(data.num_regions());
  for (int r = 0; r < data.num_regions(); ++r) candidates[r] = r;

  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<bool> storm_done{false};
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int t = 0; t < kDrivers; ++t) {
    drivers.emplace_back([&, t] {
      std::vector<serve::TenantRegistry::TenantPtr> pins;
      for (int i = 0; i < kTenants; ++i) {
        pins.push_back(registry.Get("city" + std::to_string(i)).value());
      }
      size_t which = static_cast<size_t>(t) % pins.size();
      // Keep serving until the swap storm finishes so every epoch sees
      // concurrent traffic.
      for (int iter = 0; iter < 50 || !storm_done.load(); ++iter) {
        std::vector<serve::RankRequest> requests(
            static_cast<size_t>(batch));
        for (int j = 0; j < batch; ++j) {
          requests[static_cast<size_t>(j)].type = (t + iter + j) % 3;
          requests[static_cast<size_t>(j)].candidates = candidates;
          requests[static_cast<size_t>(j)].k = 8;
        }
        for (const auto& response :
             pins[which]->engine->RankSitesBatch(requests)) {
          if (response.ok()) {
            responses.fetch_add(1);
          } else {
            failures.fetch_add(1);
          }
        }
        which = (which + 1) % pins.size();
      }
    });
  }

  // The storm: hot-swap pristine snapshot copies into the victim tenant
  // while the drivers hammer every tenant.
  int promoted = 0;
  {
    std::string bytes;
    if (!ReadFileBytes(snapshot_path, &bytes)) return 1;
    for (int swap = 0; swap < kSwaps; ++swap) {
      const std::string copy_path =
          snapshot_path + ".tenant_swap" + std::to_string(swap);
      if (!WriteFileBytes(copy_path, bytes)) break;
      const auto report =
          registry.Swap("city0", copy_path, MakeRestored(), ConfigHash());
      if (report.ok() && report->promoted) ++promoted;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    storm_done.store(true);
  }
  for (std::thread& driver : drivers) driver.join();

  int victim_epoch = 0;
  int bystanders_clean = 1;
  int shard_sums_ok = 1;
  int healthy = 1;
  for (int i = 0; i < kTenants; ++i) {
    const auto tenant = registry.Get("city" + std::to_string(i)).value();
    if (i == 0) {
      victim_epoch = static_cast<int>(tenant->engine->epoch());
    } else if (tenant->engine->epoch() != 1) {
      bystanders_clean = 0;
    }
    if (!ShardSumsMatch(*tenant->engine)) shard_sums_ok = 0;
    if (tenant->engine->health() != serve::ServeHealth::kServing) {
      healthy = 0;
    }
  }

  std::printf(
      "tenants: tenants=%zu responses=%llu failures=%llu batch=%d "
      "swaps_promoted=%d victim_epoch=%d bystanders_clean=%d "
      "shard_sums_ok=%d healthy=%d\n",
      registry.size(), static_cast<unsigned long long>(responses.load()),
      static_cast<unsigned long long>(failures.load()), batch, promoted,
      victim_epoch, bystanders_clean, shard_sums_ok, healthy);
  const bool ok = registry.size() == kTenants && failures.load() == 0 &&
                  promoted == kSwaps && victim_epoch == 1 + kSwaps &&
                  bystanders_clean == 1 && shard_sums_ok == 1 &&
                  healthy == 1 && responses.load() > 0;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Rankings go to stdout; keep the log channel quiet by default so the
  // output is diffable.
  o2sr::obs::SetMinLogLevel(o2sr::obs::LogLevel::kWarning);
  if (argc == 3 && std::strcmp(argv[1], "train") == 0) {
    return Train(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "serve") == 0) {
    return Serve(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "chaos") == 0) {
    return Chaos(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "tenants") == 0) {
    return Tenants(argv[2]);
  }
  std::fprintf(stderr,
               "usage: %s {train|serve|chaos|tenants} <snapshot-path>\n",
               argv[0]);
  return 2;
}
