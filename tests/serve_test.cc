#include "serve/engine.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "core/o2siterec_recommender.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/score_cache.h"
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

// A deterministic in-memory recommender: score(region, type) =
// region + 100 * type, over regions [0, num_regions) with odd regions
// outside the domain and store types limited to [0, 10). Counts
// ServingPredict calls so cache behavior is observable.
class StubRecommender : public core::SiteRecommender {
 public:
  explicit StubRecommender(int num_regions) : num_regions_(num_regions) {
    Rng rng(5);
    store_.CreateNormal("stub.table", 4, 3, 1.0, rng);
    store_.CreateZeros("stub.bias", 1, 3);
  }

  std::string Name() const override { return "Stub"; }
  common::Status Train(const core::TrainContext&) override {
    return common::Status::Ok();
  }
  common::StatusOr<std::vector<double>> Predict(
      const core::InteractionList& pairs) const override {
    ++predict_calls_;
    std::vector<double> out;
    out.reserve(pairs.size());
    for (const core::Interaction& it : pairs) {
      if (it.type < 0 || it.type >= 10) {
        return common::InvalidArgumentError("stub: unknown store type " +
                                            std::to_string(it.type));
      }
      if (!CanScoreRegion(it.region)) {
        return common::InvalidArgumentError("stub: unscorable region " +
                                            std::to_string(it.region));
      }
      out.push_back(Score(it.region, it.type));
    }
    return out;
  }
  const nn::ParameterStore* parameter_store() const override {
    return &store_;
  }
  nn::ParameterStore* mutable_parameter_store() override { return &store_; }
  bool CanScoreRegion(int region) const override {
    return region >= 0 && region < num_regions_ && region % 2 == 0;
  }

  static double Score(int region, int type) {
    return static_cast<double>(region + 100 * type);
  }
  int predict_calls() const { return predict_calls_; }

 private:
  int num_regions_;
  nn::ParameterStore store_;
  mutable int predict_calls_ = 0;
};

// --- Fingerprints -----------------------------------------------------

TEST(FingerprintTest, IdenticalConfigsAgree) {
  sim::SimConfig a, b;
  EXPECT_EQ(FingerprintOf(a), FingerprintOf(b));
  core::O2SiteRecConfig ma, mb;
  EXPECT_EQ(FingerprintOf(ma), FingerprintOf(mb));
}

TEST(FingerprintTest, AnyFieldChangeChangesTheHash) {
  sim::SimConfig base;
  sim::SimConfig seed = base;
  seed.seed += 1;
  EXPECT_NE(FingerprintOf(base), FingerprintOf(seed));
  sim::SimConfig stores = base;
  stores.num_stores += 1;
  EXPECT_NE(FingerprintOf(base), FingerprintOf(stores));

  core::O2SiteRecConfig model;
  core::O2SiteRecConfig variant = model;
  variant.variant = core::O2SiteRecVariant::kNoCapacity;
  EXPECT_NE(FingerprintOf(model), FingerprintOf(variant));
  core::O2SiteRecConfig dim = model;
  dim.rec.embedding_dim += 2;
  EXPECT_NE(FingerprintOf(model), FingerprintOf(dim));
}

TEST(FingerprintTest, CombineIsOrderSensitive) {
  EXPECT_NE(CombineFingerprints(1, 2), CombineFingerprints(2, 1));
}

TEST(FingerprintTest, TypeNormalizersTakePerTypeMax) {
  core::InteractionList interactions;
  core::Interaction it;
  it.region = 0;
  it.type = 0;
  it.orders = 5.0;
  interactions.push_back(it);
  it.orders = 9.0;
  interactions.push_back(it);
  it.type = 2;
  it.orders = 4.0;
  interactions.push_back(it);
  it.type = 7;  // out of range for num_types = 3: ignored
  interactions.push_back(it);
  const std::vector<double> norm = TypeNormalizers(3, interactions);
  ASSERT_EQ(norm.size(), 3u);
  EXPECT_DOUBLE_EQ(norm[0], 9.0);
  EXPECT_DOUBLE_EQ(norm[1], 0.0);
  EXPECT_DOUBLE_EQ(norm[2], 4.0);
}

// --- ScoreCache -------------------------------------------------------

constexpr uint64_t kEpoch = 1;

TEST(ScoreCacheTest, MissThenHit) {
  ScoreCache cache(8, 2);
  double score = 0.0;
  EXPECT_FALSE(cache.Lookup(ScoreCache::Key(1, 2), kEpoch, &score));
  cache.Insert(ScoreCache::Key(1, 2), kEpoch, 0.75);
  EXPECT_TRUE(cache.Lookup(ScoreCache::Key(1, 2), kEpoch, &score));
  EXPECT_DOUBLE_EQ(score, 0.75);
  EXPECT_EQ(cache.size(), 1);
}

TEST(ScoreCacheTest, KeySeparatesTypeAndRegion) {
  EXPECT_NE(ScoreCache::Key(1, 2), ScoreCache::Key(2, 1));
  EXPECT_NE(ScoreCache::Key(0, 7), ScoreCache::Key(7, 0));
}

TEST(ScoreCacheTest, EvictsLeastRecentlyUsed) {
  // One shard, two slots: inserting a third evicts the least recently
  // *touched* entry, not the oldest inserted.
  ScoreCache cache(2, 1);
  cache.Insert(1, kEpoch, 1.0);
  cache.Insert(2, kEpoch, 2.0);
  double score = 0.0;
  EXPECT_TRUE(cache.Lookup(1, kEpoch, &score));  // refresh key 1
  cache.Insert(3, kEpoch, 3.0);                  // evicts key 2
  EXPECT_TRUE(cache.Lookup(1, kEpoch, &score));
  EXPECT_FALSE(cache.Lookup(2, kEpoch, &score));
  EXPECT_TRUE(cache.Lookup(3, kEpoch, &score));
  EXPECT_EQ(cache.size(), 2);
}

TEST(ScoreCacheTest, ReinsertRefreshesValueWithoutGrowth) {
  ScoreCache cache(4, 1);
  cache.Insert(9, kEpoch, 1.0);
  cache.Insert(9, kEpoch, 2.0);
  double score = 0.0;
  EXPECT_TRUE(cache.Lookup(9, kEpoch, &score));
  EXPECT_DOUBLE_EQ(score, 2.0);
  EXPECT_EQ(cache.size(), 1);
}

TEST(ScoreCacheTest, ZeroCapacityDisables) {
  ScoreCache cache(0, 4);
  cache.Insert(1, kEpoch, 1.0);
  double score = 0.0;
  EXPECT_FALSE(cache.Lookup(1, kEpoch, &score));
  EXPECT_FALSE(cache.LookupStale(1, &score));
  EXPECT_EQ(cache.size(), 0);
}

TEST(ScoreCacheTest, WrongEpochIsAMissButStaysReachableStale) {
  ScoreCache cache(8, 2);
  cache.Insert(5, /*epoch=*/1, 0.25);
  double score = 0.0;
  // A fresh lookup from a later epoch must never see the old score.
  EXPECT_FALSE(cache.Lookup(5, /*epoch=*/2, &score));
  // The degraded ladder still can, and learns which epoch tagged it.
  uint64_t entry_epoch = 0;
  EXPECT_TRUE(cache.LookupStale(5, &score, &entry_epoch));
  EXPECT_DOUBLE_EQ(score, 0.25);
  EXPECT_EQ(entry_epoch, 1u);
}

TEST(ScoreCacheTest, InsertRetagsTheEpoch) {
  ScoreCache cache(8, 2);
  cache.Insert(5, /*epoch=*/1, 0.25);
  cache.Insert(5, /*epoch=*/2, 0.5);
  double score = 0.0;
  EXPECT_FALSE(cache.Lookup(5, /*epoch=*/1, &score));
  EXPECT_TRUE(cache.Lookup(5, /*epoch=*/2, &score));
  EXPECT_DOUBLE_EQ(score, 0.5);
  EXPECT_EQ(cache.size(), 1);
}

TEST(ScoreCacheTest, InvalidateDropsEveryEpoch) {
  ScoreCache cache(8, 2);
  cache.Insert(1, /*epoch=*/1, 1.0);
  cache.Insert(2, /*epoch=*/2, 2.0);
  cache.Invalidate();
  double score = 0.0;
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.LookupStale(1, &score));
  EXPECT_FALSE(cache.LookupStale(2, &score));
}

TEST(ScoreCacheTest, StatsCountEveryOutcome) {
  ScoreCache cache(2, 1);
  double score = 0.0;
  EXPECT_FALSE(cache.Lookup(1, kEpoch, &score));  // miss
  cache.Insert(1, kEpoch, 1.0);
  cache.Insert(2, kEpoch, 2.0);
  EXPECT_TRUE(cache.Lookup(1, kEpoch, &score));  // hit
  cache.Insert(3, kEpoch, 3.0);                  // evicts 2
  EXPECT_TRUE(cache.LookupStale(3, &score));     // stale hit
  const ScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);
}

// --- Env-deferred ServingOptions (ResolveServingOptions) --------------

TEST(ScoreCacheTest, CapacityFromEnv) {
  const ServingOptions deferred;  // cache_capacity < 0: O2SR_SERVE_CACHE
  ::setenv("O2SR_SERVE_CACHE", "123", 1);
  EXPECT_EQ(ResolveServingOptions(deferred).cache_capacity, 123);
  ::setenv("O2SR_SERVE_CACHE", "0", 1);
  EXPECT_EQ(ResolveServingOptions(deferred).cache_capacity, 0);
  ::setenv("O2SR_SERVE_CACHE", "-4", 1);  // out of range -> clamped, warned
  EXPECT_EQ(ResolveServingOptions(deferred).cache_capacity, 0);
  ServingOptions explicit_capacity;
  explicit_capacity.cache_capacity = 7;
  EXPECT_EQ(ResolveServingOptions(explicit_capacity).cache_capacity, 7);
  ::unsetenv("O2SR_SERVE_CACHE");
  EXPECT_EQ(ResolveServingOptions(deferred).cache_capacity, 65536);
}

TEST(ScoreCacheDeathTest, GarbageCapacityIsFatal) {
  ::setenv("O2SR_SERVE_CACHE", "nonsense", 1);
  EXPECT_DEATH(ResolveServingOptions(ServingOptions{}),
               "O2SR_SERVE_CACHE='nonsense'");
  ::unsetenv("O2SR_SERVE_CACHE");
}

TEST(SloConfigTest, FromEnvParsesAndRejectsGarbage) {
  const ServingOptions deferred;  // slo_ms, slo_target unset
  ::setenv("O2SR_SERVE_SLO_MS", "12.5", 1);
  ::setenv("O2SR_SERVE_SLO_TARGET", "0.95", 1);
  ServingOptions resolved = ResolveServingOptions(deferred);
  EXPECT_DOUBLE_EQ(resolved.slo_ms, 12.5);
  EXPECT_DOUBLE_EQ(resolved.slo_target, 0.95);

  // Out-of-range values fall back to the defaults (with a warning).
  ::setenv("O2SR_SERVE_SLO_MS", "-3", 1);
  ::setenv("O2SR_SERVE_SLO_TARGET", "1.5", 1);
  resolved = ResolveServingOptions(deferred);
  EXPECT_DOUBLE_EQ(resolved.slo_ms, 50.0);
  EXPECT_DOUBLE_EQ(resolved.slo_target, 0.99);

  // Empty counts as unset; malformed values are fatal (see death test).
  ::setenv("O2SR_SERVE_SLO_MS", "", 1);
  ::setenv("O2SR_SERVE_SLO_TARGET", "", 1);
  resolved = ResolveServingOptions(deferred);
  EXPECT_DOUBLE_EQ(resolved.slo_ms, 50.0);
  EXPECT_DOUBLE_EQ(resolved.slo_target, 0.99);

  ::unsetenv("O2SR_SERVE_SLO_MS");
  ::unsetenv("O2SR_SERVE_SLO_TARGET");
  resolved = ResolveServingOptions(deferred);
  EXPECT_DOUBLE_EQ(resolved.slo_ms, 50.0);
  EXPECT_DOUBLE_EQ(resolved.slo_target, 0.99);
}

TEST(SloConfigDeathTest, GarbageSloMsIsFatal) {
  ::setenv("O2SR_SERVE_SLO_MS", "fast", 1);
  EXPECT_DEATH(ResolveServingOptions(ServingOptions{}),
               "O2SR_SERVE_SLO_MS='fast'");
  ::unsetenv("O2SR_SERVE_SLO_MS");
}

// --- Snapshot container -----------------------------------------------

SnapshotMeta StubMeta() {
  SnapshotMeta meta;
  meta.model_name = "Stub";
  meta.config_hash = 42;
  meta.num_regions = 10;
  meta.num_types = 3;
  meta.type_norm = {4.0, 0.0, 9.5};
  return meta;
}

TEST(SnapshotTest, RoundTripsMetaAndParameters) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_roundtrip.snap");
  ASSERT_TRUE(ExportSnapshot(path, StubMeta(), model).ok());

  const auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->meta.model_name, "Stub");
  EXPECT_EQ(loaded->meta.config_hash, 42u);
  EXPECT_EQ(loaded->meta.num_regions, 10);
  EXPECT_EQ(loaded->meta.num_types, 3);
  ASSERT_EQ(loaded->meta.type_norm.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded->meta.type_norm[2], 9.5);

  // Restore into a structurally identical model with different values.
  StubRecommender other(10);
  for (auto& p : other.mutable_parameter_store()->params()) {
    p->value.Fill(0.0f);
  }
  ASSERT_TRUE(RestoreModel(*loaded, other, 42).ok());
  const auto& src = model.parameter_store()->params();
  const auto& dst = other.parameter_store()->params();
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    for (size_t j = 0; j < src[i]->value.size(); ++j) {
      EXPECT_EQ(src[i]->value.data()[j], dst[i]->value.data()[j]);
    }
  }
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  const auto loaded = LoadSnapshot(TempPath("snap_missing.snap"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, CorruptPayloadIsDataLoss) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_corrupt.snap");
  ASSERT_TRUE(ExportSnapshot(path, StubMeta(), model).ok());
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x5a;  // flip a payload byte
  WriteFileRaw(path, bytes);
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotTest, TruncationIsDataLoss) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_truncated.snap");
  ASSERT_TRUE(ExportSnapshot(path, StubMeta(), model).ok());
  const std::string bytes = ReadFile(path);
  WriteFileRaw(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotTest, WrongMagicIsDataLoss) {
  const std::string path = TempPath("snap_magic.snap");
  ASSERT_TRUE(
      nn::WriteContainerFile(path, "O2SRXXXX", kSnapshotFormatVersion, "p")
          .ok());
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotTest, FutureVersionIsFailedPrecondition) {
  const std::string path = TempPath("snap_version.snap");
  ASSERT_TRUE(nn::WriteContainerFile(path, kSnapshotMagic,
                                     kSnapshotFormatVersion + 1, "p")
                  .ok());
  EXPECT_EQ(LoadSnapshot(path).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RestoreRefusesWrongModelName) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_name.snap");
  SnapshotMeta meta = StubMeta();
  meta.model_name = "SomebodyElse";
  ASSERT_TRUE(ExportSnapshot(path, meta, model).ok());
  const auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  const common::Status status = RestoreModel(*loaded, model, 42);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("SomebodyElse"), std::string::npos);
}

TEST(SnapshotTest, RestoreRefusesConfigHashMismatch) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_hash.snap");
  ASSERT_TRUE(ExportSnapshot(path, StubMeta(), model).ok());
  const auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(RestoreModel(*loaded, model, 43).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RestoreRefusesShapeMismatchWithoutTouchingTheModel) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_shape.snap");
  ASSERT_TRUE(ExportSnapshot(path, StubMeta(), model).ok());
  const auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());

  // A model with the same names but a different table shape.
  class OtherShape : public StubRecommender {
   public:
    OtherShape() : StubRecommender(10) {
      mutable_parameter_store()->params().clear();
      Rng rng(5);
      mutable_parameter_store()->CreateNormal("stub.table", 2, 2, 1.0, rng);
      mutable_parameter_store()->CreateZeros("stub.bias", 1, 3);
    }
  } other;
  const float before = other.parameter_store()->params()[0]->value.at(0, 0);
  EXPECT_EQ(RestoreModel(*loaded, other, 42).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(other.parameter_store()->params()[0]->value.at(0, 0), before);
}

// Satellite hardening (DESIGN.md §10): *every* byte-truncation of a valid
// snapshot must yield a clean Status — never a crash, hang, or partial
// restore. This sweeps all prefixes, which covers torn headers, torn
// payloads and torn checksums alike.
TEST(SnapshotTest, EveryByteTruncationFailsCleanly) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_sweep.snap");
  ASSERT_TRUE(ExportSnapshot(path, StubMeta(), model).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string truncated_path = TempPath("snap_sweep_cut.snap");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileRaw(truncated_path, bytes.substr(0, len));
    const auto loaded = LoadSnapshot(truncated_path);
    ASSERT_FALSE(loaded.ok()) << "length " << len << " of " << bytes.size();
    ASSERT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "length " << len << ": " << loaded.status();
  }
}

TEST(SnapshotTest, TornFileSplicingTwoSnapshotsIsDataLoss) {
  // A torn write: the first half of one valid snapshot, the second half of
  // another (different parameter values). Sizes match, magic matches — the
  // checksum must still refuse it.
  StubRecommender a(10), b(10);
  for (auto& p : b.mutable_parameter_store()->params()) p->value.Fill(3.5f);
  const std::string path_a = TempPath("snap_torn_a.snap");
  const std::string path_b = TempPath("snap_torn_b.snap");
  ASSERT_TRUE(ExportSnapshot(path_a, StubMeta(), a).ok());
  ASSERT_TRUE(ExportSnapshot(path_b, StubMeta(), b).ok());
  const std::string bytes_a = ReadFile(path_a);
  const std::string bytes_b = ReadFile(path_b);
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  // Cut just past the first differing byte: the splice then carries at
  // least one byte of A inside B's checksummed payload. (A naive midpoint
  // cut can fall after all the differences and rebuild B exactly.)
  size_t first_diff = 0;
  while (first_diff < bytes_a.size() &&
         bytes_a[first_diff] == bytes_b[first_diff]) {
    ++first_diff;
  }
  ASSERT_LT(first_diff, bytes_a.size());
  const std::string torn =
      bytes_a.substr(0, first_diff + 1) + bytes_b.substr(first_diff + 1);
  const std::string torn_path = TempPath("snap_torn.snap");
  WriteFileRaw(torn_path, torn);
  EXPECT_EQ(LoadSnapshot(torn_path).status().code(), StatusCode::kDataLoss);
}

// --- Quarantine -------------------------------------------------------

TEST(QuarantineTest, MovesFileAndWritesReasonRecord) {
  StubRecommender model(10);
  const std::string path = TempPath("snap_quarantine.snap");
  ASSERT_TRUE(ExportSnapshot(path, StubMeta(), model).ok());
  const auto quarantined = QuarantineSnapshot(path, "checksum failure");
  ASSERT_TRUE(quarantined.ok()) << quarantined.status();
  // Original gone, quarantined copy + reason record present.
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kNotFound);
  EXPECT_NE(quarantined->find(".quarantine"), std::string::npos);
  EXPECT_TRUE(LoadSnapshot(*quarantined).ok());
  const std::string reason = ReadFile(*quarantined + ".reason");
  EXPECT_NE(reason.find("checksum failure"), std::string::npos);
}

TEST(QuarantineTest, MissingFileIsNotFound) {
  const auto quarantined =
      QuarantineSnapshot(TempPath("snap_quarantine_missing.snap"), "x");
  EXPECT_EQ(quarantined.status().code(), StatusCode::kNotFound);
}

// --- ServingEngine ----------------------------------------------------

ServingOptions NoCache() {
  ServingOptions options;
  options.cache_capacity = 0;
  return options;
}

TEST(ServingEngineTest, NullModelIsInvalidArgument) {
  EXPECT_EQ(ServingEngine::Create(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingEngineTest, RanksByScoreDescendingThenRegion) {
  StubRecommender model(10);
  const auto engine = ServingEngine::Create(&model, NoCache()).value();
  // Scorable candidates: 0, 2, 4, 6, 8 with scores equal to the region id.
  const auto ranked =
      engine->RankSites(0, {0, 2, 4, 6, 8}, 3).value();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].region, 8);
  EXPECT_EQ(ranked[1].region, 6);
  EXPECT_EQ(ranked[2].region, 4);
  EXPECT_DOUBLE_EQ(ranked[0].score, 8.0);
}

TEST(ServingEngineTest, SkipsUnscorableAndDuplicateCandidates) {
  StubRecommender model(10);
  const auto engine = ServingEngine::Create(&model, NoCache()).value();
  // 1, 3 are odd (outside the domain); -5 and 99 are out of bounds; 4
  // repeats.
  const auto ranked =
      engine->RankSites(1, {4, 1, 4, 3, -5, 99, 2}, 10).value();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].region, 4);
  EXPECT_EQ(ranked[1].region, 2);
  EXPECT_DOUBLE_EQ(ranked[0].score, StubRecommender::Score(4, 1));
}

TEST(ServingEngineTest, KZeroAndNegativeK) {
  StubRecommender model(10);
  const auto engine = ServingEngine::Create(&model, NoCache()).value();
  EXPECT_TRUE(engine->RankSites(0, {0, 2}, 0)->empty());
  EXPECT_EQ(engine->RankSites(0, {0, 2}, -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingEngineTest, CacheAvoidsRescoringWithoutChangingResults) {
  StubRecommender model(10);
  ServingOptions options;
  options.cache_capacity = 64;
  const auto engine = ServingEngine::Create(&model, options).value();

  const auto cold = engine->RankSites(2, {0, 2, 4, 6, 8}, 5).value();
  const int calls_after_cold = model.predict_calls();
  EXPECT_GT(calls_after_cold, 0);

  const auto warm = engine->RankSites(2, {0, 2, 4, 6, 8}, 5).value();
  EXPECT_EQ(model.predict_calls(), calls_after_cold);  // all hits

  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].region, warm[i].region);
    EXPECT_EQ(cold[i].score, warm[i].score);  // bit-identical
  }
}

TEST(ServingEngineTest, ScoreMatchesPredictThroughTheCache) {
  StubRecommender model(10);
  ServingOptions options;
  options.cache_capacity = 4;  // small: forces evictions across calls
  const auto engine = ServingEngine::Create(&model, options).value();
  core::InteractionList pairs;
  for (int region : {0, 2, 4, 6, 8, 0, 2}) {
    core::Interaction it;
    it.region = region;
    it.type = 1;
    pairs.push_back(it);
  }
  for (int round = 0; round < 3; ++round) {
    const auto scores = engine->Score(pairs);
    ASSERT_TRUE(scores.ok());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ((*scores)[i],
                StubRecommender::Score(pairs[i].region, pairs[i].type));
    }
  }
}

// --- ServingEngine error paths (previously untested) ------------------

TEST(ServingEngineErrorTest, EmptyCandidateListIsAnEmptyResponse) {
  StubRecommender model(10);
  const auto engine = ServingEngine::Create(&model, NoCache()).value();
  const auto ranked = engine->RankSites(0, {}, 5);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  EXPECT_TRUE(ranked->empty());
  // The full-contract API agrees and still tags the (vacuously fresh) tier.
  RankRequest request;
  request.type = 0;
  request.k = 5;
  const auto response = engine->Rank(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->sites.empty());
  EXPECT_EQ(response->tier, ServeTier::kFresh);
}

TEST(ServingEngineErrorTest, KLargerThanCandidatePoolReturnsWholePool) {
  StubRecommender model(10);
  const auto engine = ServingEngine::Create(&model, NoCache()).value();
  const auto ranked = engine->RankSites(0, {0, 2, 4}, 1000);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked->size(), 3u);  // the whole scorable pool, ranked
  EXPECT_EQ((*ranked)[0].region, 4);
  EXPECT_EQ((*ranked)[2].region, 0);
}

TEST(ServingEngineErrorTest, UnknownStoreTypeIsInvalidArgument) {
  StubRecommender model(10);
  // Even with a prior configured: a contract violation must surface, never
  // be silently served from the fallback ladder.
  ServingOptions options = NoCache();
  core::InteractionList prior_obs;
  core::Interaction it;
  it.region = 0;
  it.type = 0;
  it.orders = 1.0;
  prior_obs.push_back(it);
  options.prior = BuildPopularityPrior(10, prior_obs);
  const auto engine = ServingEngine::Create(&model, options).value();
  const auto ranked = engine->RankSites(/*type=*/77, {0, 2, 4}, 3);
  ASSERT_FALSE(ranked.ok());
  EXPECT_EQ(ranked.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ranked.status().message().find("77"), std::string::npos);
}

TEST(ServingEngineErrorTest, ServingPredictBeforePrepareServingFails) {
  core::O2SiteRecRecommender model(core::O2SiteRecConfig{});
  core::InteractionList pairs;
  core::Interaction it;
  it.region = 0;
  it.type = 0;
  pairs.push_back(it);
  const auto scores = model.ServingPredict(pairs);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServingEngineErrorTest, CreateRefusesAModelWithoutStructure) {
  // FinalizeServing fails before Train/PrepareServing, so Create must too.
  core::O2SiteRecRecommender model(core::O2SiteRecConfig{});
  const auto engine = ServingEngine::Create(&model);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace o2sr::serve
