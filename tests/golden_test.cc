// Golden regression layer: tiny fixed-seed models whose predictions are
// pinned to checked-in values. A drift > 1e-9 means a semantic change to
// the numerics (kernel rewrite, graph construction change, RNG stream
// shift) — update the goldens ONLY when the change is intended, by
// rebuilding and running with O2SR_REGEN_GOLDENS=1, which prints
// source-pastable arrays instead of asserting.
//
// The snapshot tests assert something stronger than the 1e-9 goldens:
// export -> fresh process-equivalent rebuild (PrepareServing) -> restore
// must reproduce the trained model's predictions *bit-identically*.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/factory.h"
#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "sim/dataset.h"

namespace o2sr {
namespace {

sim::SimConfig GoldenWorld() {
  sim::SimConfig cfg;
  cfg.city_width_m = 3000.0;
  cfg.city_height_m = 3000.0;
  cfg.num_store_types = 6;
  cfg.num_stores = 90;
  cfg.num_couriers = 40;
  cfg.num_days = 2;
  cfg.peak_orders_per_region_slot = 4.0;
  cfg.seed = 404;
  return cfg;
}

core::O2SiteRecConfig GoldenModelConfig() {
  core::O2SiteRecConfig cfg;
  cfg.capacity.embedding_dim = 8;
  cfg.rec.embedding_dim = 16;
  cfg.rec.node_heads = 2;
  cfg.rec.time_heads = 2;
  cfg.epochs = 5;
  cfg.learning_rate = 5e-3;
  cfg.seed = 7;
  return cfg;
}

baselines::BaselineConfig GoldenBaselineConfig() {
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 12;
  cfg.epochs = 10;
  cfg.seed = 11;
  return cfg;
}

struct Fixture {
  sim::Dataset data;
  core::InteractionList interactions;
  eval::Split split;
  core::InteractionList probe;  // first 8 held-out pairs

  Fixture() : data(sim::GenerateDataset(GoldenWorld())) {
    interactions = eval::BuildInteractions(data);
    split = eval::SplitInteractions(data, interactions, {0.8, /*seed=*/2});
    for (size_t i = 0; i < split.test.size() && probe.size() < 8; ++i) {
      probe.push_back(split.test[i]);
    }
  }
};

const Fixture& F() {
  static const Fixture* f = new Fixture();
  return *f;
}

core::TrainContext Ctx() {
  core::TrainContext ctx;
  ctx.data = &F().data;
  ctx.visible_orders = &F().split.train_orders;
  ctx.train = &F().split.train;
  return ctx;
}

bool Regenerating() {
  return std::getenv("O2SR_REGEN_GOLDENS") != nullptr;
}

void CheckOrPrint(const char* label, const std::vector<double>& actual,
                  const std::vector<double>& golden) {
  if (Regenerating()) {
    std::printf("const std::vector<double> %s = {", label);
    for (size_t i = 0; i < actual.size(); ++i) {
      std::printf("%s\n    %.17g", i == 0 ? "" : ",", actual[i]);
    }
    std::printf("};\n");
    return;
  }
  ASSERT_EQ(actual.size(), golden.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], golden[i], 1e-9)
        << label << " drifted at index " << i;
  }
}

// Exports `model` to a temp snapshot, rebuilds the model structure in
// `fresh` without training, restores, and requires bit-identical
// predictions on the probe pairs from a ServingEngine over the restored
// copy.
void CheckSnapshotRoundTrip(core::SiteRecommender& model,
                            core::SiteRecommender& fresh,
                            const char* file_tag) {
  const std::vector<double> direct = model.Predict(F().probe).value();

  const std::string path =
      std::string(::testing::TempDir()) + "/golden_" + file_tag + ".snap";
  serve::SnapshotMeta meta;
  meta.model_name = model.Name();
  meta.config_hash = 1;  // the test controls both sides
  meta.num_regions = F().data.num_regions();
  meta.num_types = F().data.num_types();
  meta.type_norm =
      serve::TypeNormalizers(F().data.num_types(), F().interactions);
  ASSERT_TRUE(serve::ExportSnapshot(path, meta, model).ok());

  ASSERT_TRUE(fresh.PrepareServing(Ctx()).ok());
  const auto snapshot = serve::LoadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(serve::RestoreModel(*snapshot, fresh, 1).ok());

  const auto engine = serve::ServingEngine::Create(&fresh).value();
  const std::vector<double> served = engine->Score(F().probe).value();
  ASSERT_EQ(served.size(), direct.size());
  for (size_t i = 0; i < served.size(); ++i) {
    // Bitwise equality, not NEAR: the restored model runs the same op
    // graph on the same values.
    EXPECT_EQ(served[i], direct[i])
        << model.Name() << ": snapshot serving diverged at pair " << i;
  }
}

// --- Goldens (regenerate with O2SR_REGEN_GOLDENS=1) -------------------

const std::vector<double> kO2SiteRecPredict = {
    0.43637999892234802,
    0.51051211357116699,
    0.45283177495002747,
    0.48274579644203186,
    0.43487858772277832,
    0.50189763307571411,
    0.47614336013793945,
    0.40637853741645813};
const std::vector<double> kO2SiteRecTopRegions = {21, 16, 26, 25, 18};
const std::vector<double> kO2SiteRecTopScores = {
    0.56830424070358276,
    0.53134804964065552,
    0.5240551233291626,
    0.50596082210540771,
    0.49069678783416748};
const std::vector<double> kCityTransferPredict = {
    0.40826207399368286,
    0.37565332651138306,
    0.41403898596763611,
    0.41346406936645508,
    0.38353490829467773,
    0.46185490489006042,
    0.40593743324279785,
    0.42801004648208618};
const std::vector<double> kBlgCoSvdPredict = {
    0.37463301420211792,
    0.47162488102912903,
    0.59147381782531738,
    0.60063046216964722,
    0.42195004224777222,
    0.54571592807769775,
    0.57627880573272705,
    0.36486440896987915};

TEST(GoldenTest, O2SiteRecPredictMatchesGolden) {
  core::O2SiteRecRecommender model(GoldenModelConfig());
  ASSERT_TRUE(model.Train(Ctx()).ok());
  CheckOrPrint("kO2SiteRecPredict", model.Predict(F().probe).value(),
               kO2SiteRecPredict);

  // Ranked top-5 for type 0 over every region, through the engine.
  const auto engine = serve::ServingEngine::Create(&model).value();
  std::vector<int> all_regions(F().data.num_regions());
  for (int r = 0; r < F().data.num_regions(); ++r) all_regions[r] = r;
  const auto ranked = engine->RankSites(0, all_regions, 5).value();
  std::vector<double> regions, scores;
  for (const serve::RankedSite& site : ranked) {
    regions.push_back(site.region);
    scores.push_back(site.score);
  }
  CheckOrPrint("kO2SiteRecTopRegions", regions, kO2SiteRecTopRegions);
  CheckOrPrint("kO2SiteRecTopScores", scores, kO2SiteRecTopScores);
}

TEST(GoldenTest, O2SiteRecSnapshotServesBitIdentically) {
  core::O2SiteRecRecommender model(GoldenModelConfig());
  ASSERT_TRUE(model.Train(Ctx()).ok());
  core::O2SiteRecRecommender fresh(GoldenModelConfig());
  CheckSnapshotRoundTrip(model, fresh, "o2siterec");
}

TEST(GoldenTest, CityTransferPredictMatchesGolden) {
  const auto model = baselines::MakeBaseline(
      baselines::BaselineKind::kCityTransfer, GoldenBaselineConfig());
  ASSERT_TRUE(model->Train(Ctx()).ok());
  CheckOrPrint("kCityTransferPredict", model->Predict(F().probe).value(),
               kCityTransferPredict);
}

TEST(GoldenTest, CityTransferSnapshotServesBitIdentically) {
  const auto model = baselines::MakeBaseline(
      baselines::BaselineKind::kCityTransfer, GoldenBaselineConfig());
  ASSERT_TRUE(model->Train(Ctx()).ok());
  const auto fresh = baselines::MakeBaseline(
      baselines::BaselineKind::kCityTransfer, GoldenBaselineConfig());
  CheckSnapshotRoundTrip(*model, *fresh, "citytransfer");
}

TEST(GoldenTest, BlgCoSvdPredictMatchesGolden) {
  const auto model = baselines::MakeBaseline(
      baselines::BaselineKind::kBlgCoSvd, GoldenBaselineConfig());
  ASSERT_TRUE(model->Train(Ctx()).ok());
  CheckOrPrint("kBlgCoSvdPredict", model->Predict(F().probe).value(),
               kBlgCoSvdPredict);
}

TEST(GoldenTest, BlgCoSvdSnapshotServesBitIdentically) {
  const auto model = baselines::MakeBaseline(
      baselines::BaselineKind::kBlgCoSvd, GoldenBaselineConfig());
  ASSERT_TRUE(model->Train(Ctx()).ok());
  const auto fresh = baselines::MakeBaseline(
      baselines::BaselineKind::kBlgCoSvd, GoldenBaselineConfig());
  CheckSnapshotRoundTrip(*model, *fresh, "blgcosvd");
}

}  // namespace
}  // namespace o2sr
