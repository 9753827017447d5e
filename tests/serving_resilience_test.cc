#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace o2sr::serve {
namespace {

using common::StatusCode;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFileRaw(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// A turnstile for blocking a model's Predict mid-flight: `entered` tells
// the test the scorer is actually inside the call (not merely admitted).
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = true;
  std::atomic<int> entered{0};

  void Close() {
    std::lock_guard<std::mutex> lock(mutex);
    open = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void Pass() {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
};

// A recommender whose scores depend on one restorable parameter, so a
// snapshot swap observably changes what the engine serves:
//   score(region, type) = scale * (1 + region + 100 * type)
class ScaledStub : public core::SiteRecommender {
 public:
  explicit ScaledStub(int num_regions, float scale, Gate* gate = nullptr)
      : num_regions_(num_regions), gate_(gate) {
    store_.CreateZeros("scaled.scale", 1, 1);
    store_.params()[0]->value.Fill(scale);
  }

  std::string Name() const override { return "ScaledStub"; }
  common::Status Train(const core::TrainContext&) override {
    return common::Status::Ok();
  }
  common::StatusOr<std::vector<double>> Predict(
      const core::InteractionList& pairs) const override {
    if (gate_ != nullptr) gate_->Pass();
    std::vector<double> out;
    out.reserve(pairs.size());
    for (const core::Interaction& it : pairs) {
      if (it.type < 0 || it.type >= 10) {
        return common::InvalidArgumentError("scaled stub: unknown type " +
                                            std::to_string(it.type));
      }
      if (!CanScoreRegion(it.region)) {
        return common::InvalidArgumentError("scaled stub: bad region " +
                                            std::to_string(it.region));
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
  Gate* gate_;
  nn::ParameterStore store_;
};

constexpr uint64_t kConfigHash = 42;

// Exports a snapshot whose restore sets the stub's scale to `scale`.
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

// Every test here leaves the global fault injector healthy for the rest of
// the binary.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    common::FaultInjector::ResetGlobalForTest("");
  }
};

// --- Hot snapshot swap ------------------------------------------------

TEST_F(ResilienceTest, SwapPromotesBumpsEpochAndServesTheNewScores) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 64;
  const auto engine = ServingEngine::Create(&base, options).value();
  EXPECT_EQ(engine->epoch(), 1u);

  // Warm the cache against epoch 1.
  const auto before = engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  EXPECT_EQ(before.epoch, 1u);
  EXPECT_EQ(before.tier, ServeTier::kFresh);
  EXPECT_DOUBLE_EQ(before.sites[0].score, ScaledStub::Score(1.0, 2, 1));

  const std::string path = ExportScaled("resil_promote.snap", 3.0f);
  SwapOptions swap;
  CanaryQuery canary;
  canary.type = 1;
  canary.candidates = {0, 1, 2};
  canary.k = 2;
  canary.expected = {{2, ScaledStub::Score(3.0, 2, 1)},
                     {1, ScaledStub::Score(3.0, 1, 1)}};
  swap.canaries.push_back(canary);

  const auto report = engine->SwapSnapshot(
      path, std::make_unique<ScaledStub>(10, 0.0f), kConfigHash, swap);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->promoted) << report->reject_reason;
  EXPECT_EQ(report->epoch, 2u);
  EXPECT_EQ(report->canaries_run, 1u);
  EXPECT_TRUE(report->quarantine_path.empty());
  EXPECT_EQ(engine->epoch(), 2u);

  // The warm epoch-1 cache entries must never be served as fresh now:
  // the response carries the new model's scores, fresh tier, epoch 2.
  const auto after = engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.tier, ServeTier::kFresh);
  EXPECT_DOUBLE_EQ(after.sites[0].score, ScaledStub::Score(3.0, 2, 1));

  // A promoted snapshot stays where it was published.
  EXPECT_TRUE(LoadSnapshot(path).ok());
}

TEST_F(ResilienceTest, SwapRejectsACorruptSnapshotAndQuarantinesIt) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 0;
  const auto engine = ServingEngine::Create(&base, options).value();

  const std::string path = ExportScaled("resil_corrupt.snap", 3.0f);
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x5a;
  WriteFileRaw(path, bytes);

  const auto report = engine->SwapSnapshot(
      path, std::make_unique<ScaledStub>(10, 0.0f), kConfigHash);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->promoted);
  EXPECT_EQ(report->reject_reason.code(), StatusCode::kDataLoss);
  ASSERT_NE(report->quarantine_path.find(".quarantine"), std::string::npos);
  // The snapshot moved out of the deploy path, with a reason record.
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(ReadFile(report->quarantine_path + ".reason").empty());

  // The original model keeps serving, untouched, at epoch 1.
  EXPECT_EQ(engine->epoch(), 1u);
  const auto response = engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  EXPECT_EQ(response.tier, ServeTier::kFresh);
  EXPECT_DOUBLE_EQ(response.sites[0].score, ScaledStub::Score(1.0, 2, 1));
}

TEST_F(ResilienceTest, SwapRejectsACanaryMismatchWithoutPollutingTheCache) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 64;
  const auto engine = ServingEngine::Create(&base, options).value();

  const std::string path = ExportScaled("resil_canary.snap", 3.0f);
  SwapOptions swap;
  CanaryQuery canary;
  canary.type = 1;
  canary.candidates = {0, 1, 2};
  canary.k = 1;
  // Golden expectations from the *old* model: the scale-3 restore diverges.
  canary.expected = {{2, ScaledStub::Score(1.0, 2, 1)}};
  swap.canaries.push_back(canary);

  const auto report = engine->SwapSnapshot(
      path, std::make_unique<ScaledStub>(10, 0.0f), kConfigHash, swap);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->promoted);
  EXPECT_EQ(report->canaries_run, 1u);
  EXPECT_EQ(report->reject_reason.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(report->quarantine_path.empty());

  // Canary scoring ran against the staged model directly — nothing of it
  // may be visible through the serving path.
  EXPECT_EQ(engine->epoch(), 1u);
  const auto response = engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  EXPECT_EQ(response.tier, ServeTier::kFresh);
  EXPECT_DOUBLE_EQ(response.sites[0].score, ScaledStub::Score(1.0, 2, 1));
}

TEST_F(ResilienceTest, SwapRejectsAConfigFingerprintMismatch) {
  ScaledStub base(10, 1.0f);
  const auto engine = ServingEngine::Create(&base).value();
  const std::string path = ExportScaled("resil_hash.snap", 3.0f);
  const auto report = engine->SwapSnapshot(
      path, std::make_unique<ScaledStub>(10, 0.0f), kConfigHash + 1);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->promoted);
  EXPECT_EQ(report->reject_reason.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->epoch(), 1u);
}

TEST_F(ResilienceTest, SwapWithNullStagedModelIsACallError) {
  ScaledStub base(10, 1.0f);
  const auto engine = ServingEngine::Create(&base).value();
  const auto report =
      engine->SwapSnapshot(TempPath("unused.snap"), nullptr, kConfigHash);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ResilienceTest, InFlightQueryPinsItsModelAcrossASwap) {
  Gate gate;
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 0;
  const auto engine = ServingEngine::Create(&base, options).value();

  // Swap in an owned, gate-controlled model at epoch 2.
  {
    const std::string path = ExportScaled("resil_pin2.snap", 2.0f);
    const auto report = engine->SwapSnapshot(
        path, std::make_unique<ScaledStub>(10, 0.0f, &gate), kConfigHash);
    ASSERT_TRUE(report.ok() && report->promoted) << report->reject_reason;
  }

  gate.Close();
  common::StatusOr<RankResponse> inflight =
      common::InternalError("not served yet");
  std::thread query([&] { inflight = engine->Rank(Request(1, {0, 1, 2}, 3)); });
  // Wait until the query is provably *inside* the epoch-2 model's scorer.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (gate.entered.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(gate.entered.load(), 1);

  // Promote epoch 3 while the query is mid-flight on epoch 2.
  {
    const std::string path = ExportScaled("resil_pin3.snap", 3.0f);
    const auto report = engine->SwapSnapshot(
        path, std::make_unique<ScaledStub>(10, 0.0f), kConfigHash);
    ASSERT_TRUE(report.ok() && report->promoted) << report->reject_reason;
  }
  EXPECT_EQ(engine->epoch(), 3u);

  gate.Open();
  query.join();
  // The in-flight query finished on the model it pinned: epoch 2 scores,
  // fresh tier — the displaced model was kept alive for it.
  ASSERT_TRUE(inflight.ok()) << inflight.status();
  EXPECT_EQ(inflight->epoch, 2u);
  EXPECT_EQ(inflight->tier, ServeTier::kFresh);
  EXPECT_DOUBLE_EQ(inflight->sites[0].score, ScaledStub::Score(2.0, 2, 1));

  const auto fresh = engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  EXPECT_EQ(fresh.epoch, 3u);
  EXPECT_DOUBLE_EQ(fresh.sites[0].score, ScaledStub::Score(3.0, 2, 1));
}

// --- Fallback ladder + health -----------------------------------------

TEST_F(ResilienceTest, StaleCacheTierServesTheDisplacedEpochUnderScorerFaults) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 64;
  options.health_recovery_streak = 2;
  const auto engine = ServingEngine::Create(&base, options).value();

  // Warm epoch-1 entries, then promote epoch 2.
  (void)engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  const std::string path = ExportScaled("resil_stale.snap", 3.0f);
  ASSERT_TRUE(engine
                  ->SwapSnapshot(path, std::make_unique<ScaledStub>(10, 0.0f),
                                 kConfigHash)
                  ->promoted);

  // Fresh scoring is down: the ladder answers from the stale epoch-1
  // entries, labeled as such, and health degrades.
  common::FaultInjector::ResetGlobalForTest("score=error:1.0");
  const auto degraded = engine->Rank(Request(1, {0, 1, 2}, 3));
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->tier, ServeTier::kStaleCache);
  EXPECT_EQ(degraded->epoch, 2u);
  EXPECT_DOUBLE_EQ(degraded->sites[0].score, ScaledStub::Score(1.0, 2, 1));
  EXPECT_EQ(engine->health(), ServeHealth::kDegraded);

  // Scorer recovers: responses are fresh (new model's scores) and after
  // the recovery streak the health machine returns to SERVING.
  common::FaultInjector::ResetGlobalForTest("");
  const auto fresh1 = engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  EXPECT_EQ(fresh1.tier, ServeTier::kFresh);
  EXPECT_DOUBLE_EQ(fresh1.sites[0].score, ScaledStub::Score(3.0, 2, 1));
  EXPECT_EQ(engine->health(), ServeHealth::kDegraded);  // streak 1 of 2
  (void)engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  EXPECT_EQ(engine->health(), ServeHealth::kServing);
}

TEST_F(ResilienceTest, PriorTierAnswersWhenModelAndCacheCannot) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 0;  // no stale rung
  core::InteractionList observed;
  for (const auto& [region, orders] :
       std::vector<std::pair<int, double>>{{0, 5.0}, {1, 10.0}, {2, 20.0}}) {
    core::Interaction it;
    it.region = region;
    it.type = 1;
    it.orders = orders;
    observed.push_back(it);
  }
  options.prior = BuildPopularityPrior(10, observed);
  const auto engine = ServingEngine::Create(&base, options).value();

  common::FaultInjector::ResetGlobalForTest("score=error:1.0");
  const auto response = engine->Rank(Request(1, {0, 1, 2}, 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->tier, ServeTier::kPrior);
  ASSERT_EQ(response->sites.size(), 3u);
  EXPECT_EQ(response->sites[0].region, 2);
  EXPECT_DOUBLE_EQ(response->sites[0].score, 1.0);   // 20 / 20
  EXPECT_DOUBLE_EQ(response->sites[1].score, 0.5);   // 10 / 20
  EXPECT_DOUBLE_EQ(response->sites[2].score, 0.25);  // 5 / 20
  EXPECT_EQ(engine->health(), ServeHealth::kDegraded);

  // A pair no rung can answer fails with the original scorer error.
  const auto exhausted = engine->Rank(Request(1, {4}, 1));
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(exhausted.status().message().find("exhausted the fallback ladder"),
            std::string::npos);
}

TEST_F(ResilienceTest, InjectedScorerDelayPushesPastTheDeadlineIntoTheLadder) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 0;
  core::InteractionList observed;
  core::Interaction it;
  it.region = 2;
  it.type = 1;
  it.orders = 8.0;
  observed.push_back(it);
  options.prior = BuildPopularityPrior(10, observed);
  const auto engine = ServingEngine::Create(&base, options).value();

  common::FaultInjector::ResetGlobalForTest("score=delay:30ms");
  RankRequest request = Request(1, {2}, 1);
  request.deadline = Deadline::AfterMs(5.0);
  const auto response = engine->Rank(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->tier, ServeTier::kPrior);
  EXPECT_EQ(engine->health(), ServeHealth::kDegraded);
}

// --- Shedding ----------------------------------------------------------

TEST_F(ResilienceTest, PreExpiredDeadlineIsShed) {
  ScaledStub base(10, 1.0f);
  const auto engine = ServingEngine::Create(&base).value();
  RankRequest request = Request(1, {0, 1, 2}, 3);
  request.deadline = Deadline::AfterMs(-1.0);
  const auto response = engine->Rank(request);
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->shed_count(), 1u);
}

TEST_F(ResilienceTest, AdmissionHighWaterMarkShedsTheOverflowRequest) {
  Gate gate;
  gate.Close();
  ScaledStub base(10, 1.0f, &gate);
  ServingOptions options;
  options.cache_capacity = 0;
  options.max_inflight = 1;
  const auto engine = ServingEngine::Create(&base, options).value();

  common::StatusOr<RankResponse> first =
      common::InternalError("not served yet");
  std::thread holder([&] { first = engine->Rank(Request(1, {0, 1, 2}, 3)); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (gate.entered.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(gate.entered.load(), 1);
  EXPECT_EQ(engine->inflight(), 1);

  const auto shed = engine->Rank(Request(1, {0, 1, 2}, 3));
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->shed_count(), 1u);

  gate.Open();
  holder.join();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->tier, ServeTier::kFresh);
  EXPECT_EQ(engine->inflight(), 0);
}

TEST_F(ResilienceTest, LameDuckShedsEveryNewRequest) {
  ScaledStub base(10, 1.0f);
  const auto engine = ServingEngine::Create(&base).value();
  ASSERT_TRUE(engine->Rank(Request(1, {0, 1, 2}, 3)).ok());
  engine->EnterLameDuck();
  EXPECT_EQ(engine->health(), ServeHealth::kLameDuck);
  const auto response = engine->Rank(Request(1, {0, 1, 2}, 3));
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response.status().message().find("LAME_DUCK"), std::string::npos);
  EXPECT_EQ(engine->RankSites(1, {0}, 1).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->shed_count(), 2u);
  // Terminal: a fresh-looking world does not resurrect it.
  EXPECT_EQ(engine->health(), ServeHealth::kLameDuck);
}

// A degraded response still in flight when the engine enters LAME_DUCK is
// counted once, alike in the registry counter and in the shard blocks.
TEST_F(ResilienceTest, DegradedResponseInFlightAtLameDuckIsCountedOnce) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 0;
  options.metrics_prefix = "resilience.lame_duck_degraded";
  core::InteractionList observed;
  core::Interaction it;
  it.region = 2;
  it.type = 1;
  it.orders = 8.0;
  observed.push_back(it);
  options.prior = BuildPopularityPrior(10, observed);
  const auto engine = ServingEngine::Create(&base, options).value();

  // The scorer stalls past the request's deadline, so the prior answers;
  // the engine enters LAME_DUCK while the admitted request waits.
  common::FaultInjector::ResetGlobalForTest("score=delay:300ms");
  RankRequest request = Request(1, {2}, 1);
  request.deadline = Deadline::AfterMs(50.0);
  common::StatusOr<RankResponse> response =
      common::InternalError("not served yet");
  std::thread client([&] { response = engine->Rank(request); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine->inflight() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine->inflight(), 1);
  engine->EnterLameDuck();
  client.join();

  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->tier, ServeTier::kPrior);
  EXPECT_EQ(engine->health(), ServeHealth::kLameDuck);
  EXPECT_EQ(engine->degraded_count(), 1u);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter(options.metrics_prefix + ".degraded_responses")
                ->value(),
            1u);
}

// --- Deadline edge cases ------------------------------------------------

TEST(DeadlineTest, EdgeSemantics) {
  EXPECT_TRUE(Deadline::Infinite().infinite());
  EXPECT_FALSE(Deadline::Infinite().expired());
  EXPECT_EQ(Deadline::Infinite().remaining_ms(),
            std::numeric_limits<double>::infinity());
  // Non-positive budgets are born expired.
  EXPECT_TRUE(Deadline::AfterMs(0.0).expired());
  EXPECT_TRUE(Deadline::AfterMs(-3.0).expired());
  EXPECT_LE(Deadline::AfterMs(-3.0).remaining_ms(), 0.0);
  // A generous budget is not expired and reports positive remaining time.
  const Deadline generous = Deadline::AfterMs(60000.0);
  EXPECT_FALSE(generous.infinite());
  EXPECT_FALSE(generous.expired());
  EXPECT_GT(generous.remaining_ms(), 0.0);
}

TEST_F(ResilienceTest, ZeroMsBudgetIsShedAtAdmission) {
  ScaledStub base(10, 1.0f);
  const auto engine = ServingEngine::Create(&base).value();
  RankRequest request = Request(1, {0, 1, 2}, 3);
  request.deadline = Deadline::AfterMs(0.0);
  const auto response = engine->Rank(request);
  EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response.status().message().find("deadline"), std::string::npos)
      << response.status();
  EXPECT_EQ(engine->shed_count(), 1u);
  // Shedding is load protection, not sickness: health is untouched.
  EXPECT_EQ(engine->health(), ServeHealth::kServing);
}

TEST_F(ResilienceTest,
       DeadlineExpiringBetweenCacheMissAndScoreFallsToStaleCache) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 64;
  const auto engine = ServingEngine::Create(&base, options).value();

  // Warm epoch-1 entries, then promote epoch 2 so those entries are stale.
  (void)engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  const std::string path = ExportScaled("resil_ddl_stale.snap", 3.0f);
  ASSERT_TRUE(engine
                  ->SwapSnapshot(path, std::make_unique<ScaledStub>(10, 0.0f),
                                 kConfigHash)
                  ->promoted);

  // The request is admitted with budget to spare; the injected scorer delay
  // then burns it before the model runs, and the engine answers from the
  // stale rung instead of scoring a result nobody is waiting for.
  common::FaultInjector::ResetGlobalForTest("score=delay:30ms");
  RankRequest request = Request(1, {0, 1, 2}, 3);
  request.deadline = Deadline::AfterMs(10.0);
  const auto response = engine->Rank(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->tier, ServeTier::kStaleCache);
  EXPECT_EQ(response->epoch, 2u);
  // Stale values are the displaced epoch-1 model's scores — proof the
  // epoch-2 scorer was skipped.
  EXPECT_DOUBLE_EQ(response->sites[0].score, ScaledStub::Score(1.0, 2, 1));
}

// --- SLO monitor + health-change notification --------------------------

TEST_F(ResilienceTest, SloMonitorSeesEveryOutcomeClass) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 0;
  options.slo_ms = 1000.0;  // generous: only structural badness counts
  options.slo_target = 0.9;
  core::InteractionList observed;
  core::Interaction it;
  it.region = 2;
  it.type = 1;
  it.orders = 8.0;
  observed.push_back(it);
  options.prior = BuildPopularityPrior(10, observed);
  const auto engine = ServingEngine::Create(&base, options).value();

  // Good request.
  (void)engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  // Shed request (pre-expired deadline).
  RankRequest expired = Request(1, {0, 1, 2}, 3);
  expired.deadline = Deadline::AfterMs(-1.0);
  EXPECT_FALSE(engine->Rank(expired).ok());
  // Degraded request: scorer down, prior answers.
  common::FaultInjector::ResetGlobalForTest("score=error:1.0");
  EXPECT_EQ(engine->Rank(Request(1, {2}, 1))->tier, ServeTier::kPrior);
  // Failed request (ladder exhausted) also counts as bad.
  EXPECT_FALSE(engine->Rank(Request(1, {4}, 1)).ok());
  common::FaultInjector::ResetGlobalForTest("");

  const obs::SloSnapshot snap = engine->slo().Snapshot();
  EXPECT_DOUBLE_EQ(snap.config.slo_ms, 1000.0);
  EXPECT_DOUBLE_EQ(snap.config.target, 0.9);
  EXPECT_EQ(snap.requests, 4u);
  EXPECT_EQ(snap.bad, 3u);
  EXPECT_EQ(snap.shed, 2u);       // admission shed + exhausted ladder
  EXPECT_EQ(snap.degraded, 1u);
  EXPECT_DOUBLE_EQ(snap.bad_fraction, 0.75);
  EXPECT_TRUE(snap.breached);
}

TEST_F(ResilienceTest, HealthChangeCallbackReportsEveryTransition) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  options.cache_capacity = 0;
  options.health_recovery_streak = 1;
  core::InteractionList observed;
  core::Interaction it;
  it.region = 2;
  it.type = 1;
  it.orders = 8.0;
  observed.push_back(it);
  options.prior = BuildPopularityPrior(10, observed);
  std::vector<std::pair<ServeHealth, ServeHealth>> transitions;
  options.on_health_change = [&](ServeHealth from, ServeHealth to) {
    transitions.emplace_back(from, to);
  };
  const auto engine = ServingEngine::Create(&base, options).value();

  // SERVING -> DEGRADED (prior-tier answer), DEGRADED -> SERVING (fresh
  // streak of 1), then SERVING -> LAME_DUCK on drain.
  common::FaultInjector::ResetGlobalForTest("score=error:1.0");
  (void)engine->Rank(Request(1, {2}, 1)).value();
  common::FaultInjector::ResetGlobalForTest("");
  (void)engine->Rank(Request(1, {2}, 1)).value();
  engine->EnterLameDuck();
  engine->EnterLameDuck();  // idempotent: no second notification

  using H = ServeHealth;
  const std::vector<std::pair<H, H>> expected = {
      {H::kServing, H::kDegraded},
      {H::kDegraded, H::kServing},
      {H::kServing, H::kLameDuck},
  };
  EXPECT_EQ(transitions, expected);
}

TEST_F(ResilienceTest, StableHealthNeverInvokesTheCallback) {
  ScaledStub base(10, 1.0f);
  ServingOptions options;
  int calls = 0;
  options.on_health_change = [&](ServeHealth, ServeHealth) { ++calls; };
  const auto engine = ServingEngine::Create(&base, options).value();
  for (int i = 0; i < 5; ++i) {
    (void)engine->Rank(Request(1, {0, 1, 2}, 3)).value();
  }
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace o2sr::serve
