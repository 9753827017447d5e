// train_o2siterec and train_baselines: a user trains a model on a city's
// order log and ranks the held-out (region, type) pairs. The operation a
// user waits for is Train + Predict + Evaluate; RepeatFor runs it once to
// warm up, then repeats it until the run's seconds have elapsed, each time
// on a fresh set-up of the same city (bit-identical data). Epoch counts
// keep one repetition between one and two seconds, so a 15 s run times 5
// to 9 repetitions and reports the fastest.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "sim/dataset.h"
#include "suite.h"

namespace o2sr::suite {

sim::SimConfig TrainCity(const RunOptions& options,
                         sim::SimulationPreset preset, uint64_t stream) {
  sim::SimConfig city;
  city.preset = preset;
  city.seed = SubSeed(options.seed, stream);
  if (options.smoke) {
    city.city_width_m = 4000.0;
    city.city_height_m = 4000.0;
    city.num_store_types = 6;
    city.num_stores = 400;
    city.num_couriers = 120;
    city.num_days = 2;
  } else {
    city.city_width_m = 7000.0;
    city.city_height_m = 7000.0;
    city.num_store_types = 14;
    city.num_stores = 3200;
    city.num_couriers = 280;
    city.num_days = 5;
  }
  city.peak_orders_per_region_slot = 5.0;
  return city;
}

std::unique_ptr<Prepared> SetUpCity(const sim::SimConfig& city,
                                    uint64_t split_seed, Ledger* ledger,
                                    std::vector<double>* setup_s) {
  const Clock::time_point start = Clock::now();
  sim::Dataset data = ledger->Time(
      "sim.generate_dataset", [&] { return sim::GenerateDataset(city); });
  eval::Split split = ledger->Time("eval.split", [&] {
    return eval::SplitInteractions(data, eval::BuildInteractions(data),
                                   {0.8, split_seed});
  });
  auto prepared = std::make_unique<Prepared>(
      Prepared{std::move(data), std::move(split)});
  setup_s->push_back(SecondsSince(start));
  return prepared;
}

core::TrainContext ContextOf(const Prepared& prepared,
                             exec::ThreadPool* pool) {
  core::TrainContext ctx;
  ctx.data = &prepared.data;
  ctx.visible_orders = &prepared.split.train_orders;
  ctx.train = &prepared.split.train;
  ctx.pool = pool;
  return ctx;
}

TrainOutcome TrainAndRank(core::SiteRecommender& model,
                          const Prepared& prepared, const RunOptions& options,
                          const std::string& layer, Ledger* ledger) {
  TrainOutcome out;
  core::TrainContext ctx = ContextOf(prepared, options.pool);
  nn::TrainReport report;
  ctx.report = &report;
  ledger->Attempt();
  const common::Status status =
      ledger->Time(layer, [&] { return model.Train(ctx); });
  out.train_ms = ledger->Calls(layer).back();
  if (!status.ok()) {
    ledger->Fail(model.Name() + " Train: " + status.ToString());
    return out;
  }
  out.samples = static_cast<double>(prepared.split.train.size()) *
                report.epochs_run;
  auto predictions = model.Predict(prepared.split.test);
  if (!predictions.ok()) {
    ledger->Fail(model.Name() + " Predict: " + predictions.status().ToString());
    return out;
  }
  for (double p : *predictions) {
    if (!std::isfinite(p)) {
      ledger->Fail(model.Name() + " predicted a non-finite score");
      return out;
    }
  }
  eval::EvalOptions eval_options;
  // The smoke city has too few regions per type for the full-size pool.
  eval_options.min_candidates = options.smoke ? 5 : 20;
  const eval::EvalResult result =
      eval::Evaluate(prepared.split.test, *predictions, eval_options);
  if (result.types_evaluated == 0) {
    ledger->Fail(model.Name() + " evaluated no store type");
    return out;
  }
  for (const auto& [k, ndcg] : result.ndcg) {
    if (!(ndcg >= 0.0 && ndcg <= 1.0)) {
      ledger->Fail(model.Name() + " NDCG@" + std::to_string(k) +
                   " outside [0, 1]");
      return out;
    }
  }
  out.ndcg3 = result.ndcg.at(3);
  out.predictions = std::move(*predictions);
  out.ok = true;
  return out;
}

namespace {

// Every repetition trains the same model on the same data with the same
// seed, so its predictions must repeat bit for bit.
void CheckRepeats(const std::string& name, const std::vector<double>& first,
                  const std::vector<double>& again, Ledger* ledger) {
  if (first != again) {
    ledger->Fail(name + " predictions differ between identical repetitions");
  }
}

}  // namespace

void RunTrainO2SiteRec(const RunOptions& options, Ledger* ledger) {
  const sim::SimConfig city =
      TrainCity(options, sim::SimulationPreset::kSyntheticEleme, 1);
  std::unique_ptr<Prepared> prepared;
  std::vector<double> setup_s;
  const auto set_up = [&](int) {
    prepared.reset();  // one copy alive at a time keeps peak RSS honest
    prepared = SetUpCity(city, SubSeed(options.seed, 2), ledger, &setup_s);
    return true;
  };

  core::O2SiteRecConfig config;
  config.rec.embedding_dim = 32;
  config.rec.node_heads = 4;
  config.rec.time_heads = 2;
  config.learning_rate = 3e-3;
  config.epochs = options.smoke ? 2 : 4;
  config.seed = SubSeed(options.seed, 3);

  std::vector<double> samples_per_s;
  std::vector<double> reference;
  double ndcg3 = 0.0;
  const ProfileDelta before = ProfileNow();
  const auto repetition = [&](int rep) {
    core::O2SiteRecRecommender model(config);
    TrainOutcome out =
        TrainAndRank(model, *prepared, options, "core.train", ledger);
    if (!out.ok) return false;
    if (rep == 0) {
      ledger->SetE2e("peak_rss_mb", PeakRssMb());
      ndcg3 = out.ndcg3;
      reference = std::move(out.predictions);
    } else {
      samples_per_s.push_back(out.samples / (out.train_ms / 1e3));
      CheckRepeats(model.Name(), reference, out.predictions, ledger);
    }
    return true;
  };
  const std::vector<double> op_ms =
      RepeatFor(options.seconds, set_up, repetition);
  ledger->SetE2e("setup_s", Median(setup_s));
  if (op_ms.empty()) return;

  ledger->SetE2e("latency_ms", Quantile(op_ms, 0.0));
  ledger->SetE2e("throughput", Quantile(samples_per_s, 1.0));
  if (!ledger->traced()) return;
  PublishMedianMs(ledger, "sim.generate_dataset");
  PublishMedianMs(ledger, "eval.split");
  PublishMedianMs(ledger, "core.train");
  PublishTrainerSpans(ledger);
  ledger->SetLayer("eval.ndcg3", ndcg3);
  PublishKernelProfile(ledger, ProfileSince(before),
                       static_cast<int>(op_ms.size()) + 1,
                       Median(op_ms));
}

void RunTrainBaselines(const RunOptions& options, Ledger* ledger) {
  const sim::SimConfig city =
      TrainCity(options, sim::SimulationPreset::kOpenData, 11);
  std::unique_ptr<Prepared> prepared;
  std::vector<double> setup_s;
  const auto set_up = [&](int) {
    prepared.reset();  // one copy alive at a time keeps peak RSS honest
    prepared = SetUpCity(city, SubSeed(options.seed, 12), ledger, &setup_s);
    return true;
  };

  baselines::BaselineConfig config;
  config.embedding_dim = 32;
  config.epochs = options.smoke ? 3 : 40;
  config.setting = baselines::FeatureSetting::kAdaption;
  config.seed = SubSeed(options.seed, 13);

  std::vector<double> samples_per_s;
  std::vector<std::vector<double>> reference;
  std::vector<double> ndcg3;
  const ProfileDelta before = ProfileNow();
  const auto repetition = [&](int rep) {
    // Table IV's protocol: the six baselines, one after another.
    double samples = 0.0;
    double train_ms = 0.0;
    for (size_t i = 0; i < std::size(baselines::kAllBaselines); ++i) {
      const baselines::BaselineKind kind = baselines::kAllBaselines[i];
      const std::string name = baselines::BaselineKindName(kind);
      const auto model = baselines::MakeBaseline(kind, config);
      TrainOutcome out = TrainAndRank(*model, *prepared, options,
                                      "baselines." + name + ".train", ledger);
      if (!out.ok) return false;
      samples += out.samples;
      train_ms += out.train_ms;
      if (rep == 0) {
        ndcg3.push_back(out.ndcg3);
        reference.push_back(std::move(out.predictions));
      } else {
        CheckRepeats(name, reference[i], out.predictions, ledger);
      }
    }
    if (rep == 0) {
      ledger->SetE2e("peak_rss_mb", PeakRssMb());
    } else {
      samples_per_s.push_back(samples / (train_ms / 1e3));
    }
    return true;
  };
  const std::vector<double> op_ms =
      RepeatFor(options.seconds, set_up, repetition);
  ledger->SetE2e("setup_s", Median(setup_s));
  if (op_ms.empty()) return;

  ledger->SetE2e("latency_ms", Quantile(op_ms, 0.0));
  ledger->SetE2e("throughput", Quantile(samples_per_s, 1.0));
  if (!ledger->traced()) return;
  PublishMedianMs(ledger, "sim.generate_dataset");
  PublishMedianMs(ledger, "eval.split");
  for (baselines::BaselineKind kind : baselines::kAllBaselines) {
    PublishMedianMs(ledger, std::string("baselines.") +
                                baselines::BaselineKindName(kind) + ".train");
  }
  PublishTrainerSpans(ledger);
  double ndcg3_sum = 0.0;
  for (double v : ndcg3) ndcg3_sum += v;
  ledger->SetLayer("eval.ndcg3", ndcg3_sum / ndcg3.size());
  PublishKernelProfile(ledger, ProfileSince(before),
                       static_cast<int>(op_ms.size()) + 1,
                       Median(op_ms));
}

}  // namespace o2sr::suite
