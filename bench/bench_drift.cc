// Staleness cost under drift: how much ranking quality a deployed model
// loses as the city drifts away from its training window, and what a
// warm-started refresh buys back. The continual pipeline (src/pipeline)
// exists to close exactly this gap; this bench measures the gap itself.
//
// For each drift epoch e = 1..E the drifted world is regenerated
// (sim/drift.h: stores open/close, cuisine popularity walks, rush hours
// shift) and two models are evaluated on its held-out split:
//
//   stale      trained once on epoch 0, never refreshed
//   refreshed  warm-start retrained on each drifted window (donor = the
//              previous refresh, exactly as the pipeline's RETRAIN stage)
//
// Reported per epoch: NDCG@{3,5,10} for both models on the pairs both can
// score, plus the refresh recovery wall-clock. BENCH_drift.json carries
// the series; ci.sh asserts refreshed mean NDCG >= stale mean NDCG.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/table_printer.h"
#include "core/o2siterec_recommender.h"
#include "nn/serialize.h"
#include "sim/drift.h"

namespace {

using namespace o2sr;

sim::DriftConfig DriftSpec() {
  sim::DriftConfig drift;
  drift.store_close_rate = 0.12;
  drift.store_open_rate = 0.15;
  drift.popularity_walk_sigma = 0.55;
  drift.rush_shift_slots = 0.9;
  drift.seed = 41;
  return drift;
}

}  // namespace

int main() {
  bench::BenchReport report(
      "drift", "Staleness cost under city drift",
      "continual-retraining extension (OpenSiteRec motivates the drifting "
      "multi-city setting)");
  const bool standard = bench::CurrentScale() != bench::Scale::kSmall;
  const int drift_epochs = standard ? 4 : 2;
  const sim::SimConfig base = bench::SweepConfig();
  const sim::DriftConfig drift = DriftSpec();
  core::O2SiteRecConfig model_config = bench::ModelConfig();

  eval::EvalOptions opts = bench::EvalDefaults();
  opts.min_candidates = std::max(20, opts.min_candidates / 2);

  const auto MakeContext = [](const bench::PreparedData& prepared) {
    return bench::MakeTrainContext(prepared);
  };

  // Epoch 0: the model every later epoch serves stale.
  bench::PreparedData base_world(base, /*split_seed=*/1);
  core::O2SiteRecRecommender stale(model_config);
  {
    const core::TrainContext ctx = MakeContext(base_world);
    O2SR_CHECK_OK(stale.Train(ctx));
  }
  std::vector<nn::NamedTensor> donor =
      nn::ExtractNamedTensors(*stale.parameter_store());

  TablePrinter table({"Drift epoch", "stale NDCG@3", "refreshed NDCG@3",
                      "pairs", "recovery s"});
  double stale_sum3 = 0.0, refreshed_sum3 = 0.0;
  const std::vector<int> ks = {3, 5, 10};

  for (int e = 1; e <= drift_epochs; ++e) {
    sim::DriftStats stats;
    sim::Dataset drifted =
        sim::GenerateDriftedDataset(base, drift, e, &stats);
    const core::InteractionList interactions =
        eval::BuildInteractions(drifted);
    const eval::Split split =
        eval::SplitInteractions(drifted, interactions, {0.8, 1});

    // Warm-start refresh on the drifted window (the pipeline's RETRAIN).
    const int64_t refresh_start = common::NowMicros();
    core::O2SiteRecRecommender refreshed(model_config);
    {
      core::TrainContext ctx;
      ctx.data = &drifted;
      ctx.visible_orders = &split.train_orders;
      ctx.train = &split.train;
      ctx.warm_start = &donor;
      O2SR_CHECK_OK(refreshed.Train(ctx));
    }
    const double recovery_s = (common::NowMicros() - refresh_start) / 1e6;
    donor = nn::ExtractNamedTensors(*refreshed.parameter_store());

    // Evaluate both on the pairs both can score (the stale model has no
    // node for regions whose stores only exist post-drift, and vice
    // versa).
    core::InteractionList test;
    for (const core::Interaction& it : split.test) {
      if (stale.CanScoreRegion(it.region) &&
          refreshed.CanScoreRegion(it.region)) {
        test.push_back(it);
      }
    }
    const std::vector<double> stale_pred = stale.Predict(test).value();
    const std::vector<double> refreshed_pred =
        refreshed.Predict(test).value();
    const eval::EvalResult stale_result =
        eval::Evaluate(test, stale_pred, opts);
    const eval::EvalResult refreshed_result =
        eval::Evaluate(test, refreshed_pred, opts);

    stale_sum3 += stale_result.ndcg.at(3);
    refreshed_sum3 += refreshed_result.ndcg.at(3);
    for (int k : ks) {
      report.AddValue("epoch" + std::to_string(e) + "_stale_ndcg" +
                          std::to_string(k),
                      stale_result.ndcg.at(k));
      report.AddValue("epoch" + std::to_string(e) + "_refreshed_ndcg" +
                          std::to_string(k),
                      refreshed_result.ndcg.at(k));
    }
    report.AddValue("epoch" + std::to_string(e) + "_recovery_s", recovery_s);
    report.AddResult("stale_epoch" + std::to_string(e), stale_result);
    report.AddResult("refreshed_epoch" + std::to_string(e),
                     refreshed_result);
    table.AddRow({std::to_string(e),
                  TablePrinter::Num(stale_result.ndcg.at(3)),
                  TablePrinter::Num(refreshed_result.ndcg.at(3)),
                  std::to_string(test.size()),
                  TablePrinter::Num(recovery_s)});
  }
  table.Print(stdout);

  const double stale_mean = stale_sum3 / drift_epochs;
  const double refreshed_mean = refreshed_sum3 / drift_epochs;
  report.AddValue("stale_mean_ndcg3", stale_mean);
  report.AddValue("refreshed_mean_ndcg3", refreshed_mean);
  report.AddValue("staleness_gap_ndcg3", refreshed_mean - stale_mean);
  std::printf(
      "\nStaleness check: refreshed mean NDCG@3 %.4f vs stale %.4f "
      "(gap %+.4f) -> %s\n",
      refreshed_mean, stale_mean, refreshed_mean - stale_mean,
      refreshed_mean >= stale_mean ? "REFRESH WINS" : "UNEXPECTED");
  return refreshed_mean >= stale_mean ? 0 : 1;
}
