// Golden equivalence of the batched serving path (DESIGN.md §14):
// RankSitesBatch({r1..rn}) must return bit-identical responses — ranks,
// scores, tiers, epochs, and the cache state it leaves behind — to calling
// Rank(r1)..Rank(rn) in order on the same thread. Two engines with
// identical options are driven through the same request sequence, one
// serially and one batched, and every observable is compared: response
// payloads, error codes, engine counters, and per-shard cache statistics.

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/status.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace o2sr::serve {
namespace {

using common::StatusCode;
using common::StatusOr;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Scores depend on one restorable parameter, so a snapshot swap observably
// changes what the engine serves: score(region, type) = scale * (1 +
// region + 100 * type).
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
        return common::InvalidArgumentError("scaled stub: unknown type " +
                                            std::to_string(it.type));
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

std::string ExportScaled(const char* name, float scale) {
  ScaledStub source(10, scale);
  SnapshotMeta meta;
  meta.model_name = "ScaledStub";
  meta.config_hash = kConfigHash;
  meta.num_regions = 10;
  meta.num_types = 10;
  const std::string path = TempPath(name);
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

PopularityPrior TypeOnePrior() {
  core::InteractionList observed;
  for (const auto& [region, orders] :
       std::vector<std::pair<int, double>>{{0, 5.0}, {1, 10.0}, {2, 20.0}}) {
    core::Interaction it;
    it.region = region;
    it.type = 1;
    it.orders = orders;
    observed.push_back(it);
  }
  return BuildPopularityPrior(10, observed);
}

// Engine options pinned so both engines are structurally identical and
// independent of the host's core count and O2SR_SERVE_* knobs.
ServingOptions PinnedOptions() {
  ServingOptions options;
  options.cache_capacity = 64;
  options.cache_shards = 4;
  options.num_shards = 4;
  options.health_recovery_streak = 2;
  return options;
}

std::vector<StatusOr<RankResponse>> DriveSerial(
    const ServingEngine& engine, const std::vector<RankRequest>& requests) {
  std::vector<StatusOr<RankResponse>> out;
  out.reserve(requests.size());
  for (const RankRequest& request : requests) {
    out.push_back(engine.Rank(request));
  }
  return out;
}

void ExpectSameResponses(const std::vector<StatusOr<RankResponse>>& serial,
                         const std::vector<StatusOr<RankResponse>>& batched) {
  ASSERT_EQ(serial.size(), batched.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_EQ(serial[i].ok(), batched[i].ok())
        << "serial: " << serial[i].status()
        << " batched: " << batched[i].status();
    if (!serial[i].ok()) {
      EXPECT_EQ(serial[i].status().code(), batched[i].status().code());
      continue;
    }
    const RankResponse& a = *serial[i];
    const RankResponse& b = *batched[i];
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.epoch, b.epoch);
    ASSERT_EQ(a.sites.size(), b.sites.size());
    for (size_t j = 0; j < a.sites.size(); ++j) {
      EXPECT_EQ(a.sites[j].region, b.sites[j].region) << "rank " << j;
      // Bitwise: the contract is bit-identical scores, not approximately
      // equal ones.
      EXPECT_EQ(a.sites[j].score, b.sites[j].score) << "rank " << j;
    }
  }
}

void ExpectSameCacheStats(const ScoreCache::Stats& a,
                          const ScoreCache::Stats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stale_hits, b.stale_hits);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.insertions, b.insertions);
}

// The full observable engine state the batch may not perturb: global
// counters and the aggregate cache state its requests evolved.
void ExpectSameEngineState(const ServingEngine& serial,
                           const ServingEngine& batched) {
  EXPECT_EQ(serial.requests_count(), batched.requests_count());
  EXPECT_EQ(serial.shed_count(), batched.shed_count());
  EXPECT_EQ(serial.pairs_scored_count(), batched.pairs_scored_count());
  EXPECT_EQ(serial.degraded_count(), batched.degraded_count());
  EXPECT_EQ(serial.health(), batched.health());
  EXPECT_EQ(serial.epoch(), batched.epoch());
  ExpectSameCacheStats(serial.CacheStats(), batched.CacheStats());
}

class BatchEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    common::FaultInjector::ResetGlobalForTest("");
  }
};

TEST_F(BatchEquivalenceTest, EmptyBatchReturnsEmptyAndTouchesNothing) {
  ScaledStub model(10, 1.0f);
  const auto engine = ServingEngine::Create(&model, PinnedOptions()).value();
  const auto responses = engine->RankSitesBatch({});
  EXPECT_TRUE(responses.empty());
  EXPECT_EQ(engine->requests_count(), 0u);
  EXPECT_EQ(engine->TotalShardStats().batches, 0u);
}

TEST_F(BatchEquivalenceTest, SingleElementBatchMatchesRankColdAndWarm) {
  ScaledStub serial_model(10, 1.0f);
  ScaledStub batched_model(10, 1.0f);
  const auto serial =
      ServingEngine::Create(&serial_model, PinnedOptions()).value();
  const auto batched =
      ServingEngine::Create(&batched_model, PinnedOptions()).value();

  const RankRequest request = Request(1, {3, 0, 7, 3}, 3);
  // Cold, then warm (second issue answers from the cache both engines just
  // filled).
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "cold" : "warm");
    const auto a = DriveSerial(*serial, {request});
    const auto b = batched->RankSitesBatch(std::span(&request, 1));
    ExpectSameResponses(a, b);
    ExpectSameEngineState(*serial, *batched);
  }
  // The warm round hit: same number of hits on both sides, and non-zero.
  EXPECT_GT(batched->CacheStats().hits, 0u);
}

TEST_F(BatchEquivalenceTest, ColdWarmMixEquivalence) {
  ScaledStub serial_model(10, 1.0f);
  ScaledStub batched_model(10, 1.0f);
  const auto serial =
      ServingEngine::Create(&serial_model, PinnedOptions()).value();
  const auto batched =
      ServingEngine::Create(&batched_model, PinnedOptions()).value();

  // Overlapping candidate sets: later requests hit entries earlier
  // requests of the SAME span inserted — the batch must evolve the cache
  // request by request exactly like the serial loop.
  std::vector<RankRequest> requests;
  for (int i = 0; i < 12; ++i) {
    const int type = i % 3;
    requests.push_back(
        Request(type, {i % 10, (i + 3) % 10, (i + 6) % 10, 2}, 3));
  }
  const auto a = DriveSerial(*serial, requests);
  const auto b = batched->RankSitesBatch(requests);
  ExpectSameResponses(a, b);
  ExpectSameEngineState(*serial, *batched);

  // The batch side did it in one batch call holding the accounting.
  EXPECT_EQ(batched->TotalShardStats().batches, 1u);
  EXPECT_EQ(batched->TotalShardStats().requests, requests.size());
  EXPECT_EQ(serial->TotalShardStats().batches, 0u);
}

TEST_F(BatchEquivalenceTest, DegradedMixEquivalence) {
  // Scorer down: type-1 requests fall to the prior, a request only the
  // scorer could answer exhausts the ladder and fails — identically in
  // both paths, including the failure's position in the result vector.
  ScaledStub serial_model(10, 1.0f);
  ScaledStub batched_model(10, 1.0f);
  ServingOptions options = PinnedOptions();
  options.cache_capacity = 0;  // no stale rung: ladder is fresh -> prior
  options.prior = TypeOnePrior();
  const auto serial = ServingEngine::Create(&serial_model, options).value();
  const auto batched = ServingEngine::Create(&batched_model, options).value();

  const std::vector<RankRequest> requests = {
      Request(1, {0, 1, 2}, 3),  // prior answers
      Request(1, {4}, 1),        // no rung answers -> scorer error surfaces
      Request(1, {2, 0}, 2),     // prior answers
  };

  common::FaultInjector::ResetGlobalForTest("score=error:1.0");
  const auto a = DriveSerial(*serial, requests);
  const auto b = batched->RankSitesBatch(requests);
  ExpectSameResponses(a, b);
  ExpectSameEngineState(*serial, *batched);

  ASSERT_TRUE(a[0].ok());
  EXPECT_EQ(a[0]->tier, ServeTier::kPrior);
  EXPECT_EQ(a[1].status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(batched->health(), ServeHealth::kDegraded);
}

TEST_F(BatchEquivalenceTest, StaleCacheMixEquivalenceAcrossASwap) {
  // Warm epoch-1 entries, promote epoch 2 on both engines from the same
  // snapshot, then fail fresh scoring: warm keys answer from the stale
  // epoch-1 entries, cold keys exhaust the ladder — identically.
  ScaledStub serial_model(10, 1.0f);
  ScaledStub batched_model(10, 1.0f);
  const auto serial =
      ServingEngine::Create(&serial_model, PinnedOptions()).value();
  const auto batched =
      ServingEngine::Create(&batched_model, PinnedOptions()).value();

  const std::vector<RankRequest> warm = {Request(1, {0, 1, 2}, 3),
                                         Request(2, {5, 6}, 2)};
  ExpectSameResponses(DriveSerial(*serial, warm),
                      batched->RankSitesBatch(warm));

  const std::string path = ExportScaled("batch_stale.snap", 3.0f);
  ASSERT_TRUE(serial
                  ->SwapSnapshot(path, std::make_unique<ScaledStub>(10, 0.0f),
                                 kConfigHash)
                  ->promoted);
  ASSERT_TRUE(batched
                  ->SwapSnapshot(path, std::make_unique<ScaledStub>(10, 0.0f),
                                 kConfigHash)
                  ->promoted);

  common::FaultInjector::ResetGlobalForTest("score=error:1.0");
  const std::vector<RankRequest> mixed = {
      Request(1, {0, 1, 2}, 3),  // stale hit (epoch-1 entries)
      Request(3, {0, 1}, 2),     // cold + no prior -> ladder exhausted
      Request(2, {5, 6}, 2),     // stale hit
  };
  const auto a = DriveSerial(*serial, mixed);
  const auto b = batched->RankSitesBatch(mixed);
  ExpectSameResponses(a, b);
  ExpectSameEngineState(*serial, *batched);

  ASSERT_TRUE(a[0].ok());
  EXPECT_EQ(a[0]->tier, ServeTier::kStaleCache);
  EXPECT_EQ(a[0]->epoch, 2u);
  EXPECT_EQ(a[0]->sites[0].score, ScaledStub::Score(1.0, 2, 1));
  EXPECT_EQ(a[1].status().code(), StatusCode::kUnavailable);
}

TEST_F(BatchEquivalenceTest, DeadlineExpiredAndBadKFailInPlace) {
  ScaledStub serial_model(10, 1.0f);
  ScaledStub batched_model(10, 1.0f);
  const auto serial =
      ServingEngine::Create(&serial_model, PinnedOptions()).value();
  const auto batched =
      ServingEngine::Create(&batched_model, PinnedOptions()).value();

  std::vector<RankRequest> requests;
  requests.push_back(Request(1, {0, 1, 2}, 3));
  RankRequest expired = Request(1, {0, 1, 2}, 3);
  expired.deadline = Deadline::AfterMs(-1.0);  // already past at admission
  requests.push_back(expired);
  requests.push_back(Request(2, {4, 5}, -1));  // contract violation
  requests.push_back(Request(1, {0, 1}, 2));   // healthy tail after failures

  const auto a = DriveSerial(*serial, requests);
  const auto b = batched->RankSitesBatch(requests);
  ExpectSameResponses(a, b);
  ExpectSameEngineState(*serial, *batched);

  EXPECT_TRUE(a[0].ok());
  EXPECT_EQ(a[1].status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(a[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(a[3].ok());
  EXPECT_EQ(batched->shed_count(), 1u);
}

TEST_F(BatchEquivalenceTest, BatchHoldsOneAdmissionSlotForTheWholeSpan) {
  // max_inflight = 1 and a 6-request batch: the batch holds a single slot,
  // so every request in it is admitted (the serial loop admits each
  // sequentially — same outcome, which is the point).
  ScaledStub model(10, 1.0f);
  ServingOptions options = PinnedOptions();
  options.max_inflight = 1;
  const auto engine = ServingEngine::Create(&model, options).value();

  std::vector<RankRequest> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(Request(1, {0, 1, 2}, 3));
  const auto responses = engine->RankSitesBatch(requests);
  ASSERT_EQ(responses.size(), 6u);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok()) << i << ": " << responses[i].status();
  }
  EXPECT_EQ(engine->shed_count(), 0u);
  EXPECT_EQ(engine->TotalShardStats().batches, 1u);
  EXPECT_EQ(engine->inflight(), 0);  // slot released with the batch
}

TEST_F(BatchEquivalenceTest, LameDuckShedsEveryBatchedRequest) {
  ScaledStub model(10, 1.0f);
  const auto engine = ServingEngine::Create(&model, PinnedOptions()).value();
  engine->EnterLameDuck();
  const std::vector<RankRequest> requests = {Request(1, {0, 1}, 2),
                                             Request(2, {3}, 1)};
  const auto responses = engine->RankSitesBatch(requests);
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& response : responses) {
    EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(engine->shed_count(), 2u);
}

}  // namespace
}  // namespace o2sr::serve
