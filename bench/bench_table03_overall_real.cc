// Regenerates Table III: the overall comparison of O2-SiteRec against the
// six baselines (each in Original and Adaption settings) on the
// synthetic-Eleme dataset, reporting NDCG@{3,5,10}, Precision@{3,5,10} and
// RMSE, plus a Welch t-test of O2-SiteRec against the strongest baseline
// (HGT) over multiple seeds.
//
// Expected shape (paper): O2-SiteRec wins every metric; heterogeneous-graph
// and graph-based methods beat plain matrix factorization; Adaption
// features help the site-recommendation baselines.

#include <cstdio>

#include "baselines/factory.h"
#include "bench_common.h"
#include "common/clock.h"
#include "common/math_util.h"
#include "common/table_printer.h"
#include "core/o2siterec_recommender.h"

int main() {
  using namespace o2sr;
  bench::BenchReport report(
      "table03_overall_real", "Overall performance, synthetic-Eleme dataset",
      "Table III (performance comparison, real-world data)");
  const int64_t t0 = common::NowMicros();
  bench::PreparedData prepared(bench::RealDataConfig(), /*split_seed=*/1);
  const eval::EvalOptions opts = bench::EvalDefaults();
  std::printf("dataset: %zu orders, %d regions, %d types, %zu interactions\n",
              prepared.data.orders.size(), prepared.data.num_regions(),
              prepared.data.num_types(),
              prepared.split.train.size() + prepared.split.test.size());

  TablePrinter table({"Model", "Setting", "NDCG@3", "NDCG@5", "NDCG@10",
                      "Precision@3", "Precision@5", "Precision@10", "RMSE"});

  auto run_once = [&](core::SiteRecommender& model) {
    return eval::RunOnce(model, prepared.data, prepared.split, opts).value();
  };

  const int kSeeds = bench::CurrentScale() != bench::Scale::kSmall ? 3 : 2;
  report.set_seed_count(kSeeds);
  std::vector<double> hgt_ndcg3, ours_ndcg3;

  for (auto kind : baselines::kAllBaselines) {
    for (auto setting : {baselines::FeatureSetting::kOriginal,
                         baselines::FeatureSetting::kAdaption}) {
      baselines::BaselineConfig cfg = bench::BaselineDefaults();
      cfg.setting = setting;
      if (kind == baselines::BaselineKind::kHgt &&
          setting == baselines::FeatureSetting::kAdaption) {
        // Multi-seed row for the significance test.
        std::vector<eval::EvalResult> results;
        for (int s = 0; s < kSeeds; ++s) {
          cfg.seed = 11 + s;
          auto model = baselines::MakeBaseline(kind, cfg);
          results.push_back(run_once(*model));
          hgt_ndcg3.push_back(results.back().ndcg.at(3));
        }
        const eval::EvalResult avg = bench::AverageResults(results);
        report.AddResult("HGT/Adaption", avg);
        table.AddRow([&] {
          std::vector<std::string> row = {"HGT", "Adaption"};
          for (auto& c : bench::MetricCells(avg)) row.push_back(c);
          return row;
        }());
      } else {
        auto model = baselines::MakeBaseline(kind, cfg);
        const eval::EvalResult r = run_once(*model);
        report.AddResult(std::string(baselines::BaselineKindName(kind)) + "/" +
                             baselines::FeatureSettingName(setting),
                         r);
        std::vector<std::string> row = {
            baselines::BaselineKindName(kind),
            baselines::FeatureSettingName(setting)};
        for (auto& c : bench::MetricCells(r)) row.push_back(c);
        table.AddRow(row);
      }
    }
  }

  std::vector<eval::EvalResult> ours_results;
  for (int s = 0; s < kSeeds; ++s) {
    core::O2SiteRecConfig cfg = bench::ModelConfig();
    cfg.seed = 21 + s;
    core::O2SiteRecRecommender ours(cfg);
    ours_results.push_back(run_once(ours));
    ours_ndcg3.push_back(ours_results.back().ndcg.at(3));
  }
  {
    const eval::EvalResult avg = bench::AverageResults(ours_results);
    report.AddResult("O2-SiteRec", avg);
    std::vector<std::string> row = {"O2-SiteRec", "-"};
    for (auto& c : bench::MetricCells(avg)) row.push_back(c);
    table.AddRow(row);
  }
  table.Print(stdout);

  const TTestResult t = WelchTTest(ours_ndcg3, hgt_ndcg3);
  std::printf(
      "\nWelch t-test, O2-SiteRec vs HGT/Adaption on NDCG@3 over %d seeds: "
      "t=%.2f, p=%.4f %s\n",
      kSeeds, t.t_statistic, t.p_value,
      t.p_value < 0.05 ? "(significant at 0.05)" : "(not significant)");
  const double improvement =
      (Mean(ours_ndcg3) - Mean(hgt_ndcg3)) / Mean(hgt_ndcg3) * 100.0;
  std::printf("Relative NDCG@3 improvement over HGT: %.2f%% (paper: 12.18%%)\n",
              improvement);
  report.AddValue("welch_t_statistic", t.t_statistic);
  report.AddValue("welch_p_value", t.p_value);
  report.AddValue("ndcg3_improvement_over_hgt_pct", improvement);
  std::printf("total time: %.0fs\n", (common::NowMicros() - t0) / 1e6);
  return 0;
}
