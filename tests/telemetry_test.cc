// Training telemetry: the guarded trainer records one TrainEvent per
// completed epoch plus one per recovery/resume in TrainReport::events, and
// eval::RunOnce hands that report to the caller.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/o2siterec_recommender.h"
#include "eval/experiment.h"
#include "nn/parameter.h"
#include "nn/trainer.h"

namespace o2sr {
namespace {

using obs::TrainEvent;
using obs::TrainEventKind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

int CountKind(const std::vector<TrainEvent>& events, TrainEventKind kind) {
  return static_cast<int>(
      std::count_if(events.begin(), events.end(),
                    [kind](const TrainEvent& e) { return e.kind == kind; }));
}

// Same synthetic-run scaffolding as tests/fault_tolerance_test.cc: the
// runner sees a scripted loss and whatever the hook leaves in the
// gradients.
struct SyntheticRun {
  nn::ParameterStore store;
  std::unique_ptr<nn::AdamOptimizer> adam;

  explicit SyntheticRun(double lr = 1e-2) {
    Rng rng(5);
    store.CreateXavier("w", 2, 2, rng);
    nn::AdamOptimizer::Options opt;
    opt.learning_rate = lr;
    adam = std::make_unique<nn::AdamOptimizer>(&store, opt);
  }
};

TEST(TelemetryTest, CleanRunEmitsOneEpochEventPerEpoch) {
  SyntheticRun run;
  const nn::EpochFn epoch_fn = [](int epoch) { return 1.0 / (1.0 + epoch); };
  nn::TrainReport report;
  ASSERT_TRUE(nn::RunGuardedTraining(&run.store, run.adam.get(), nullptr, 6,
                                     epoch_fn, {}, {}, &report)
                  .ok());
  ASSERT_EQ(report.events.size(), 6u);
  EXPECT_EQ(CountKind(report.events, TrainEventKind::kEpoch), 6);
  EXPECT_EQ(CountKind(report.events, TrainEventKind::kRecovery), 0);
  // Epoch numbers are consecutive, losses match the script.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(report.events[i].epoch, i);
    EXPECT_DOUBLE_EQ(report.events[i].loss, 1.0 / (1.0 + i));
    EXPECT_GT(report.events[i].learning_rate, 0.0);
  }
}

TEST(TelemetryTest, InjectedNaNEmitsRecoveryEventToJsonl) {
  SyntheticRun run(/*lr=*/1e-2);
  bool poisoned = false;
  nn::TrainHooks hooks;
  hooks.post_backward = [&](int epoch, nn::ParameterStore& store) {
    if (epoch == 2 && !poisoned) {
      poisoned = true;
      store.params()[0]->grad.at(0, 0) =
          std::numeric_limits<float>::quiet_NaN();
    }
  };
  const nn::EpochFn epoch_fn = [](int epoch) { return 1.0 / (1.0 + epoch); };
  nn::TrainReport report;
  ASSERT_TRUE(nn::RunGuardedTraining(&run.store, run.adam.get(), nullptr, 5,
                                     epoch_fn, {}, hooks, &report)
                  .ok());
  EXPECT_TRUE(poisoned);
  EXPECT_EQ(report.recoveries, 1);
  // One event per epoch plus one for the recovery.
  EXPECT_EQ(report.events.size(), 6u);
  EXPECT_EQ(CountKind(report.events, TrainEventKind::kEpoch), 5);
  ASSERT_EQ(CountKind(report.events, TrainEventKind::kRecovery), 1);

  // The recovery record names the trip and the post-backoff rate.
  const TrainEvent* recovery = nullptr;
  for (const TrainEvent& e : report.events) {
    if (e.kind == TrainEventKind::kRecovery) recovery = &e;
  }
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->epoch, 2);
  EXPECT_EQ(recovery->recoveries, 1);
  EXPECT_DOUBLE_EQ(recovery->learning_rate, 0.5e-2);
  EXPECT_NE(recovery->note.find("non-finite gradient"), std::string::npos)
      << recovery->note;
}

TEST(TelemetryTest, ResumeEmitsResumeEvent) {
  const std::string ckpt = TempPath("telemetry_resume.ckpt");
  std::remove(ckpt.c_str());
  nn::GuardrailOptions options;
  options.checkpoint_path = ckpt;
  options.checkpoint_every = 2;
  const nn::EpochFn epoch_fn = [](int epoch) { return 1.0 / (1.0 + epoch); };

  {  // First run writes the checkpoint.
    SyntheticRun run;
    ASSERT_TRUE(nn::RunGuardedTraining(&run.store, run.adam.get(), nullptr, 4,
                                       epoch_fn, options, {}, nullptr)
                    .ok());
  }

  SyntheticRun resumed;
  nn::TrainReport report;
  ASSERT_TRUE(nn::RunGuardedTraining(&resumed.store, resumed.adam.get(),
                                     nullptr, 8, epoch_fn, options, {},
                                     &report)
                  .ok());
  EXPECT_TRUE(report.resumed);
  ASSERT_EQ(CountKind(report.events, TrainEventKind::kResume), 1);
  const TrainEvent& resume = report.events.front();
  EXPECT_EQ(resume.kind, TrainEventKind::kResume);
  EXPECT_NE(resume.note.find(ckpt), std::string::npos) << resume.note;
  // Only the remaining epochs re-run.
  EXPECT_EQ(CountKind(report.events, TrainEventKind::kEpoch),
            report.epochs_run);
  EXPECT_LT(report.epochs_run, 8);
  std::remove(ckpt.c_str());
}

// End-to-end: RunOnce hands the real model's guarded-training telemetry
// out to the caller through the report.
TEST(TelemetryTest, RunOnceStreamsModelTelemetry) {
  sim::SimConfig cfg;
  cfg.city_width_m = 3500.0;
  cfg.city_height_m = 3500.0;
  cfg.num_store_types = 8;
  cfg.num_stores = 140;
  cfg.num_couriers = 60;
  cfg.num_days = 3;
  cfg.peak_orders_per_region_slot = 4.0;
  cfg.seed = 51;
  const sim::Dataset data = sim::GenerateDataset(cfg);
  const eval::Split split = eval::SplitInteractions(
      data, eval::BuildInteractions(data), {0.8, /*seed=*/2});

  core::O2SiteRecConfig model_cfg;
  model_cfg.capacity.embedding_dim = 8;
  model_cfg.rec.embedding_dim = 16;
  model_cfg.rec.node_heads = 2;
  model_cfg.rec.time_heads = 2;
  model_cfg.epochs = 6;
  model_cfg.learning_rate = 5e-3;
  core::O2SiteRecRecommender model(model_cfg);

  eval::EvalOptions opts;
  opts.min_candidates = 5;
  nn::TrainReport report;
  ASSERT_TRUE(eval::RunOnce(model, data, split, opts, &report).ok());
  // The recommender trains the capacity model and the recommendation model;
  // at least the configured epochs show up, each with a finite loss.
  EXPECT_GE(CountKind(report.events, TrainEventKind::kEpoch),
            model_cfg.epochs);
  for (const TrainEvent& e : report.events) {
    if (e.kind != TrainEventKind::kEpoch) continue;
    EXPECT_TRUE(std::isfinite(e.loss));
    EXPECT_GE(e.grad_norm, 0.0);
    EXPECT_GT(e.learning_rate, 0.0);
  }
}

}  // namespace
}  // namespace o2sr
