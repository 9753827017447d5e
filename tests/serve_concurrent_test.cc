// Concurrency proof for the sharded serving front end (DESIGN.md §14):
// N closed-loop driver threads race a snapshot-swap storm, and afterwards
// EVERY recorded response is replayed through a fresh single-threaded
// engine holding the model of the epoch the response reported — the
// replay must be bit-identical (regions and scores). That simultaneously
// proves no torn reads, no cross-epoch mixing inside one response, and
// that a response's reported epoch is the epoch that actually scored it.
// The per-shard counter blocks must also sum exactly to the engine's
// registry counters. Run under TSAN in CI (ci.sh).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace o2sr::serve {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// score(region, type) = scale * (1 + region + 100 * type), scale living in
// a restorable parameter so every promoted snapshot observably changes the
// scores (and a torn or mixed read observably breaks them).
class ScaledStub : public core::SiteRecommender {
 public:
  explicit ScaledStub(int num_regions, float scale)
      : num_regions_(num_regions) {
    store_.CreateZeros("scaled.scale", 1, 1);
    store_.params()[0]->value.Fill(scale);
  }

  std::string Name() const override { return "ScaledStub"; }
  common::Status Train(const core::TrainContext&) override {
    return common::Status::Ok();
  }
  common::StatusOr<std::vector<double>> Predict(
      const core::InteractionList& pairs) const override {
    std::vector<double> out;
    out.reserve(pairs.size());
    for (const core::Interaction& it : pairs) {
      if (it.type < 0 || it.type >= 10) {
        return common::InvalidArgumentError("scaled stub: unknown type");
      }
      out.push_back(Score(scale(), it.region, it.type));
    }
    return out;
  }
  const nn::ParameterStore* parameter_store() const override {
    return &store_;
  }
  nn::ParameterStore* mutable_parameter_store() override { return &store_; }
  bool CanScoreRegion(int region) const override {
    return region >= 0 && region < num_regions_;
  }

  double scale() const {
    return static_cast<double>(store_.params()[0]->value.at(0, 0));
  }
  static double Score(double scale, int region, int type) {
    return scale * (1.0 + region + 100.0 * type);
  }

 private:
  int num_regions_;
  nn::ParameterStore store_;
};

constexpr uint64_t kConfigHash = 42;

std::string ExportScaled(const std::string& name, float scale) {
  ScaledStub source(10, scale);
  SnapshotMeta meta;
  meta.model_name = "ScaledStub";
  meta.config_hash = kConfigHash;
  meta.num_regions = 10;
  meta.num_types = 10;
  const std::string path = TempPath(name.c_str());
  EXPECT_TRUE(ExportSnapshot(path, meta, source).ok());
  return path;
}

RankRequest Request(int type, std::vector<int> candidates, int k) {
  RankRequest request;
  request.type = type;
  request.candidates = std::move(candidates);
  request.k = k;
  return request;
}

// What one driver thread records per response, enough to replay it.
struct Record {
  int type = 0;
  std::vector<int> candidates;
  int k = 0;
  uint64_t epoch = 0;
  ServeTier tier = ServeTier::kFresh;
  std::vector<RankedSite> sites;
};

// Deterministic per-thread request stream: every region in [0, 10) is
// scorable, so all responses must be fresh-tier.
RankRequest StreamRequest(int thread, int iter) {
  const int type = (thread * 3 + iter) % 10;
  std::vector<int> candidates;
  for (int c = 0; c < 5; ++c) {
    candidates.push_back((iter + thread + c * 2) % 10);
  }
  return Request(type, std::move(candidates), 3);
}

// `engine` must have a metrics prefix of its own: the registry counters
// under it then count exactly this engine's events.
void ExpectShardSumsMatchRegistry(const ServingEngine& engine,
                                  const std::string& prefix) {
  EngineShardStats summed;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const EngineShardStats shard = engine.ShardStats(s);
    summed.requests += shard.requests;
    summed.batches += shard.batches;
    summed.shed += shard.shed;
    summed.pairs_scored += shard.pairs_scored;
    summed.degraded_responses += shard.degraded_responses;
    summed.stale_pairs += shard.stale_pairs;
    summed.prior_pairs += shard.prior_pairs;
  }
  const EngineShardStats total = engine.TotalShardStats();
  EXPECT_EQ(summed.requests, total.requests);
  EXPECT_EQ(summed.batches, total.batches);
  EXPECT_EQ(summed.shed, total.shed);
  EXPECT_EQ(summed.pairs_scored, total.pairs_scored);
  EXPECT_EQ(summed.degraded_responses, total.degraded_responses);
  EXPECT_EQ(summed.stale_pairs, total.stale_pairs);
  EXPECT_EQ(summed.prior_pairs, total.prior_pairs);

  // The per-shard sum must agree exactly with the registry counters
  // bumped independently on the same hot path.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(total.requests, registry.GetCounter(prefix + ".requests")->value());
  EXPECT_EQ(total.shed, registry.GetCounter(prefix + ".shed")->value());
  EXPECT_EQ(total.pairs_scored,
            registry.GetCounter(prefix + ".pairs_scored")->value());
  EXPECT_EQ(total.degraded_responses,
            registry.GetCounter(prefix + ".degraded_responses")->value());

  // And the aggregate cache view must match the shard-cache sum.
  const ScoreCache::Stats cache = engine.CacheStats();
  EXPECT_EQ(total.cache.hits, cache.hits);
  EXPECT_EQ(total.cache.misses, cache.misses);
  EXPECT_EQ(total.cache.stale_hits, cache.stale_hits);
  EXPECT_EQ(total.cache.evictions, cache.evictions);
  EXPECT_EQ(total.cache.insertions, cache.insertions);
}

TEST(ServeConcurrentTest, OneThreadAlwaysLandsOnOneShard) {
  ScaledStub model(10, 1.0f);
  ServingOptions options;
  options.num_shards = 8;
  options.cache_capacity = 64;
  const auto engine = ServingEngine::Create(&model, options).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine->Rank(StreamRequest(0, i)).ok());
  }
  int shards_touched = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    if (engine->ShardStats(s).requests > 0) ++shards_touched;
  }
  EXPECT_EQ(shards_touched, 1);  // thread-id hash pins the caller
  EXPECT_EQ(engine->TotalShardStats().requests, 20u);
}

TEST(ServeConcurrentTest, SwapStormRepliesBitIdenticalUnderConcurrency) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 256;
  options.cache_shards = 4;
  options.num_shards = 4;
  options.metrics_prefix = "serve_concurrent.storm";
  const auto engine = ServingEngine::Create(&base, options).value();

  // Pre-export one snapshot per scale the storm cycles through.
  const std::vector<float> kScales = {2.0f, 3.0f, 4.0f, 5.0f};
  std::vector<std::string> snapshots;
  for (size_t i = 0; i < kScales.size(); ++i) {
    snapshots.push_back(ExportScaled(
        "concurrent_scale_" + std::to_string(i) + ".snap", kScales[i]));
  }

  constexpr int kThreads = 4;
  constexpr int kMinIters = 400;
  constexpr int kSwaps = 24;

  // epoch -> the float scale that epoch serves; filled by the swapper as
  // promotions happen, read only after every thread joined.
  std::unordered_map<uint64_t, float> scale_by_epoch;
  scale_by_epoch[1] = 1.0f;

  std::atomic<bool> storm_done{false};
  std::vector<std::vector<Record>> records(kThreads);
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      std::vector<Record>& out = records[t];
      // Keep serving for the whole storm so responses span many epochs;
      // alternate the serial and batched entry points.
      for (int iter = 0;
           iter < kMinIters || !storm_done.load(std::memory_order_acquire);
           ++iter) {
        if (iter % 4 == 3) {
          std::vector<RankRequest> batch;
          for (int j = 0; j < 4; ++j) {
            batch.push_back(StreamRequest(t, iter * 4 + j));
          }
          const auto responses = engine->RankSitesBatch(batch);
          ASSERT_EQ(responses.size(), batch.size());
          for (size_t j = 0; j < responses.size(); ++j) {
            ASSERT_TRUE(responses[j].ok()) << responses[j].status();
            out.push_back({batch[j].type, batch[j].candidates, batch[j].k,
                           responses[j]->epoch, responses[j]->tier,
                           responses[j]->sites});
          }
        } else {
          const RankRequest request = StreamRequest(t, iter);
          const auto response = engine->Rank(request);
          ASSERT_TRUE(response.ok()) << response.status();
          out.push_back({request.type, request.candidates, request.k,
                         response->epoch, response->tier, response->sites});
        }
      }
    });
  }

  std::thread swapper([&] {
    // Always release the drivers, even when an assertion returns early —
    // a failed swap must fail the test, not hang it.
    struct StormDone {
      std::atomic<bool>* flag;
      ~StormDone() { flag->store(true, std::memory_order_release); }
    } done_guard{&storm_done};
    for (int s = 0; s < kSwaps; ++s) {
      const size_t which = static_cast<size_t>(s) % kScales.size();
      const auto report = engine->SwapSnapshot(
          snapshots[which], std::make_unique<ScaledStub>(10, 0.0f),
          kConfigHash);
      ASSERT_TRUE(report.ok()) << report.status();
      ASSERT_TRUE(report->promoted) << report->reject_reason;
      scale_by_epoch[report->epoch] = kScales[which];
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  swapper.join();
  for (std::thread& d : drivers) d.join();

  // Replay every record through a fresh single-threaded engine holding the
  // model of the recorded epoch: bit-identical regions and scores.
  std::unordered_map<uint64_t, std::unique_ptr<ScaledStub>> replay_models;
  std::unordered_map<uint64_t, std::unique_ptr<ServingEngine>> replay_engines;
  std::set<uint64_t> epochs_seen;
  size_t replayed = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const Record& record : records[t]) {
      ASSERT_EQ(record.tier, ServeTier::kFresh);  // nothing ever degraded
      ASSERT_TRUE(scale_by_epoch.count(record.epoch))
          << "response reports an epoch no promotion produced: "
          << record.epoch;
      epochs_seen.insert(record.epoch);
      auto& replay = replay_engines[record.epoch];
      if (replay == nullptr) {
        auto& model = replay_models[record.epoch];
        model = std::make_unique<ScaledStub>(10, scale_by_epoch[record.epoch]);
        ServingOptions replay_options;
        replay_options.cache_capacity = 256;
        replay_options.num_shards = 1;
        replay = ServingEngine::Create(model.get(), replay_options).value();
      }
      const auto expected =
          replay->Rank(Request(record.type, record.candidates, record.k));
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_EQ(record.sites.size(), expected->sites.size());
      for (size_t j = 0; j < record.sites.size(); ++j) {
        ASSERT_EQ(record.sites[j].region, expected->sites[j].region)
            << "epoch " << record.epoch << " rank " << j;
        // Bitwise: a torn swap or cross-epoch mix cannot hide in an
        // approximate comparison.
        ASSERT_EQ(record.sites[j].score, expected->sites[j].score)
            << "epoch " << record.epoch << " rank " << j;
      }
      ++replayed;
    }
  }
  EXPECT_GE(replayed, static_cast<size_t>(kThreads * kMinIters));
  // The storm actually interleaved with serving: responses span several
  // distinct epochs (1 initial + kSwaps promotions existed).
  EXPECT_GE(epochs_seen.size(), 2u);
  EXPECT_EQ(engine->epoch(), static_cast<uint64_t>(1 + kSwaps));

  // Per-shard counter blocks sum exactly to the registry counters.
  ExpectShardSumsMatchRegistry(*engine, options.metrics_prefix);
  EXPECT_EQ(engine->requests_count(), replayed);
  EXPECT_EQ(engine->shed_count(), 0u);
  EXPECT_EQ(engine->degraded_count(), 0u);
}

}  // namespace
}  // namespace o2sr::serve
