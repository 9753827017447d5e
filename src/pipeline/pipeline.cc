#include "pipeline/pipeline.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "eval/experiment.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace o2sr::pipeline {

namespace {

using common::Status;

// Stage metrics, registered once.
obs::Gauge* StageGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("pipeline.stage");
  return g;
}
obs::Gauge* CycleGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("pipeline.cycle");
  return g;
}
obs::Counter* CounterOf(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

void ApplyPipelineEnv(PipelineOptions* options) {
  O2SR_CHECK(options != nullptr);
  using common::Knob;
  options->work_dir = common::EnvString(Knob::kPipelineDir, options->work_dir);
  options->cycles = static_cast<int>(
      common::EnvInt(Knob::kPipelineCycles, options->cycles));
  options->retry.max_attempts = static_cast<int>(
      common::EnvInt(Knob::kPipelineRetries, options->retry.max_attempts));
  options->retry.initial_backoff_ms = common::EnvDouble(
      Knob::kPipelineBackoffMs, options->retry.initial_backoff_ms);
}

struct ContinualPipeline::CycleWorld {
  sim::Dataset data;
  core::InteractionList interactions;
  eval::Split split;
  sim::DriftStats drift_stats;

  explicit CycleWorld(sim::Dataset d) : data(std::move(d)) {}
};

ContinualPipeline::ContinualPipeline(PipelineOptions options)
    : options_(std::move(options)),
      journal_(options_.work_dir + "/journal.bin") {}

ContinualPipeline::~ContinualPipeline() = default;

std::string ContinualPipeline::JournalPath() const {
  return journal_.path();
}

std::string ContinualPipeline::CheckpointPath(int cycle) const {
  return options_.work_dir + "/train_cycle" + std::to_string(cycle) +
         ".ckpt";
}

std::string ContinualPipeline::SnapshotPath(int cycle) const {
  return options_.work_dir + "/snapshot_cycle" + std::to_string(cycle) +
         ".snap";
}

uint64_t ContinualPipeline::BaseConfigHash() const {
  serve::Fingerprint f;
  f.Add(serve::FingerprintOf(options_.world))
      .Add(serve::FingerprintOf(options_.model))
      .Add(serve::FingerprintOf(options_.drift));
  return f.hash();
}

uint64_t ContinualPipeline::CycleConfigHash(int cycle) const {
  serve::Fingerprint f;
  f.Add(BaseConfigHash()).Add<int32_t>(cycle);
  return f.hash();
}

const ContinualPipeline::CycleWorld& ContinualPipeline::WorldForCycle(
    int cycle) {
  if (world_ != nullptr && world_cycle_ == cycle) return *world_;
  sim::DriftStats stats;
  auto world = std::make_unique<CycleWorld>(
      sim::GenerateDriftedDataset(options_.world, options_.drift, cycle,
                                  &stats));
  world->drift_stats = stats;
  world->interactions = eval::BuildInteractions(world->data);
  world->split = eval::SplitInteractions(
      world->data, world->interactions,
      {options_.train_fraction, options_.split_seed});
  world_ = std::move(world);
  world_cycle_ = cycle;
  return *world_;
}

void ContinualPipeline::Emit(obs::PipelineEvent event) {
  event_log_.Append(event);
  report_.events.push_back(std::move(event));
}

common::Status ContinualPipeline::Transition(PipelineJournalState* state,
                                             PipelineStage next, bool* stop) {
  state->stage = next;
  ++state->transitions;
  common::RetryStats stats;
  O2SR_RETURN_IF_ERROR(common::RunWithRetry(
      options_.retry, "journal.write",
      [&] { return journal_.Write(*state); }, &stats));
  report_.retries += stats.attempts - 1;
  CounterOf("pipeline.journal_writes")->Increment();
  obs::PipelineEvent event;
  event.kind = obs::PipelineEventKind::kTransition;
  event.cycle = state->cycle;
  event.stage = PipelineStageName(next);
  Emit(std::move(event));
  ++transitions_this_run_;
  if (options_.max_transitions >= 0 &&
      transitions_this_run_ >= options_.max_transitions) {
    *stop = true;
  }
  return Status::Ok();
}

common::Status ContinualPipeline::RunTrainStage(PipelineJournalState* state) {
  const int cycle = state->cycle;
  const CycleWorld& world = WorldForCycle(cycle);

  // Warm-start donor: the previous cycle's snapshot, when one exists.
  std::vector<nn::NamedTensor> donor;
  if (cycle > 0 && !state->last_snapshot.empty()) {
    auto donor_or = common::RunWithRetry<std::vector<nn::NamedTensor>>(
        options_.retry, "warmstart.load",
        [&]() -> common::StatusOr<std::vector<nn::NamedTensor>> {
          O2SR_ASSIGN_OR_RETURN(const serve::Snapshot snap,
                                serve::LoadSnapshot(state->last_snapshot));
          return serve::DecodeSnapshotParameters(snap);
        });
    if (donor_or.ok()) {
      donor = std::move(*donor_or);
    } else {
      // A lost donor costs warm-start cheapness, not correctness — but it
      // would change the trained parameters, so a resumable run must fail
      // the same way every time. Only proceed cold when the donor is
      // genuinely gone (the file was quarantined), not merely unreadable
      // right now.
      if (donor_or.status().code() != common::StatusCode::kNotFound) {
        return donor_or.status().WithContext("warm-start donor unusable");
      }
      O2SR_LOG(WARNING) << "warm-start donor '" << state->last_snapshot
                        << "' missing; cycle " << cycle
                        << " trains from scratch";
    }
  }

  core::O2SiteRecConfig model_config = options_.model;
  model_config.guard.checkpoint_path = CheckpointPath(cycle);

  common::RetryStats stats;
  const Status status = common::RunWithRetry(
      options_.retry, "train",
      [&]() -> Status {
        auto model =
            std::make_unique<core::O2SiteRecRecommender>(model_config);
        core::TrainContext ctx;
        ctx.data = &world.data;
        ctx.visible_orders = &world.split.train_orders;
        ctx.train = &world.split.train;
        if (!donor.empty()) ctx.warm_start = &donor;
        const Status train_status = model->Train(ctx);
        if (!train_status.ok()) {
          // A corrupt checkpoint would fail every replay identically;
          // deleting it lets the retry start the cycle clean.
          if (train_status.code() == common::StatusCode::kDataLoss) {
            std::remove(model_config.guard.checkpoint_path.c_str());
          }
          return train_status;
        }
        trained_ = std::move(model);
        trained_cycle_ = cycle;
        return Status::Ok();
      },
      &stats);
  report_.retries += stats.attempts - 1;
  if (stats.attempts > 1) {
    obs::PipelineEvent event;
    event.kind = obs::PipelineEventKind::kRetry;
    event.cycle = cycle;
    event.stage = PipelineStageName(state->stage);
    event.attempt = stats.attempts;
    event.note = stats.last_error.ToString();
    Emit(std::move(event));
    CounterOf("pipeline.retries")->Increment(stats.attempts - 1);
  }
  return status;
}

common::Status ContinualPipeline::RunExportStage(
    PipelineJournalState* state) {
  const int cycle = state->cycle;
  // A supervisor resumed into EXPORT has no trained model in memory;
  // re-running the train stage is nearly free because the completed
  // per-cycle checkpoint short-circuits every epoch.
  if (trained_ == nullptr || trained_cycle_ != cycle) {
    O2SR_RETURN_IF_ERROR(RunTrainStage(state));
  }
  const CycleWorld& world = WorldForCycle(cycle);

  serve::SnapshotMeta meta;
  meta.model_name = trained_->Name();
  meta.config_hash = CycleConfigHash(cycle);
  meta.num_regions = world.data.num_regions();
  meta.num_types = world.data.num_types();
  meta.type_norm =
      serve::TypeNormalizers(world.data.num_types(), world.interactions);

  common::RetryStats stats;
  const Status status = common::RunWithRetry(
      options_.retry, "export",
      [&] { return serve::ExportSnapshot(SnapshotPath(cycle), meta,
                                         *trained_); },
      &stats);
  report_.retries += stats.attempts - 1;
  if (stats.attempts > 1) {
    CounterOf("pipeline.retries")->Increment(stats.attempts - 1);
  }
  O2SR_RETURN_IF_ERROR(status);
  state->last_snapshot = SnapshotPath(cycle);
  return Status::Ok();
}

common::StatusOr<std::unique_ptr<core::O2SiteRecRecommender>>
ContinualPipeline::BuildStaged(int cycle) {
  const CycleWorld& world = WorldForCycle(cycle);
  auto staged = std::make_unique<core::O2SiteRecRecommender>(options_.model);
  core::TrainContext ctx;
  ctx.data = &world.data;
  ctx.visible_orders = &world.split.train_orders;
  ctx.train = &world.split.train;
  O2SR_RETURN_IF_ERROR(staged->PrepareServing(ctx));
  return staged;
}

std::vector<serve::CanaryQuery> ContinualPipeline::BuildCanaries(
    const core::SiteRecommender& staged, int cycle) {
  const CycleWorld& world = WorldForCycle(cycle);
  const int num_types = world.data.num_types();
  const int num_regions = world.data.num_regions();
  std::vector<serve::CanaryQuery> canaries;
  for (int q = 0; q < options_.canary_queries && num_types > 0; ++q) {
    serve::CanaryQuery canary;
    canary.type = q % num_types;
    canary.k = 3;
    for (int r = 0; r < num_regions; ++r) {
      if (staged.CanScoreRegion(r)) canary.candidates.push_back(r);
    }
    if (canary.candidates.empty()) continue;
    canaries.push_back(std::move(canary));
  }
  return canaries;
}

common::Status ContinualPipeline::RunCanaryStage(
    PipelineJournalState* state) {
  const int cycle = state->cycle;
  const std::string path = SnapshotPath(cycle);

  // One staging attempt: build structure, restore the snapshot into it,
  // finalize. Idempotent and memory-only, so it is retried wholesale.
  const auto stage_once = [&]() -> Status {
    O2SR_ASSIGN_OR_RETURN(auto staged, BuildStaged(cycle));
    O2SR_ASSIGN_OR_RETURN(const serve::Snapshot snap,
                          serve::LoadSnapshot(path));
    O2SR_RETURN_IF_ERROR(
        serve::RestoreModel(snap, *staged, CycleConfigHash(cycle)));
    O2SR_RETURN_IF_ERROR(staged->FinalizeServing());
    staged_ = std::move(staged);
    return Status::Ok();
  };

  common::RetryStats stats;
  Status status =
      common::RunWithRetry(options_.retry, "canary.stage", stage_once,
                           &stats);
  report_.retries += stats.attempts - 1;
  if (stats.attempts > 1) {
    CounterOf("pipeline.retries")->Increment(stats.attempts - 1);
    obs::PipelineEvent event;
    event.kind = obs::PipelineEventKind::kRetry;
    event.cycle = cycle;
    event.stage = PipelineStageName(state->stage);
    event.attempt = stats.attempts;
    event.note = stats.last_error.ToString();
    Emit(std::move(event));
  }
  if (!status.ok() && status.code() == common::StatusCode::kDataLoss) {
    // The snapshot on disk is durably corrupt. Re-export it (training
    // state is recoverable from the per-cycle checkpoint) and try once
    // more before giving up.
    O2SR_LOG(WARNING) << "snapshot '" << path
                      << "' corrupt during canary staging; re-exporting";
    O2SR_RETURN_IF_ERROR(RunExportStage(state));
    status = common::RunWithRetry(options_.retry, "canary.restage",
                                  stage_once);
  }
  O2SR_RETURN_IF_ERROR(status);
  canaries_ = BuildCanaries(*staged_, cycle);
  return Status::Ok();
}

serve::ServingEngine* ContinualPipeline::LiveEngine() const {
  if (tenant_ != nullptr) return tenant_->engine.get();
  return engine_.get();
}

void ContinualPipeline::AdoptTenantIfRegistered() {
  if (!PublishesTenant() || tenant_ != nullptr) return;
  auto tenant = options_.tenants->Get(options_.tenant_name);
  if (tenant.ok()) tenant_ = std::move(*tenant);
}

common::Status ContinualPipeline::PublishServingModel(
    std::unique_ptr<core::O2SiteRecRecommender> model,
    serve::ServingOptions serving_options) {
  if (PublishesTenant()) {
    O2SR_RETURN_IF_ERROR(options_.tenants->Register(
        options_.tenant_name, std::move(model), std::move(serving_options)));
    O2SR_ASSIGN_OR_RETURN(tenant_,
                          options_.tenants->Get(options_.tenant_name));
    return Status::Ok();
  }
  serving_model_ = std::move(model);
  O2SR_ASSIGN_OR_RETURN(
      engine_,
      serve::ServingEngine::Create(serving_model_.get(), serving_options));
  return Status::Ok();
}

serve::ServingOptions ContinualPipeline::MakeServingOptions(int cycle) {
  serve::ServingOptions serving_options;
  serving_options.prior = serve::BuildPopularityPrior(
      WorldForCycle(cycle).data.num_types(),
      WorldForCycle(cycle).interactions);
  // The engine invokes this outside its health lock, on the thread whose
  // request triggered the transition — here that is always the pipeline
  // thread (the supervisor issues every serve-stage query itself).
  serving_options.on_health_change = [this](serve::ServeHealth from,
                                            serve::ServeHealth to) {
    obs::PipelineEvent event;
    event.kind = obs::PipelineEventKind::kHealth;
    event.cycle = world_cycle_;
    event.stage = "SERVE";
    event.value = static_cast<double>(to);
    event.note = std::string(serve::ServeHealthName(from)) + " -> " +
                 serve::ServeHealthName(to);
    Emit(std::move(event));
    CounterOf("pipeline.health_transitions")->Increment();
  };
  return serving_options;
}

common::Status ContinualPipeline::RunSwapStage(PipelineJournalState* state) {
  const int cycle = state->cycle;
  const std::string path = SnapshotPath(cycle);
  // A supervisor resumed into SWAP re-runs the canary staging (memory-only
  // products are never journaled, they are recomputed).
  if (staged_ == nullptr) {
    O2SR_RETURN_IF_ERROR(RunCanaryStage(state));
  }

  // A tenant some earlier pipeline (or Run) already registered is adopted
  // and hot-swapped below, never re-registered.
  AdoptTenantIfRegistered();
  if (LiveEngine() == nullptr) {
    // First promotion of this process: the staged model itself becomes the
    // serving model (there is nothing to hot-swap from yet). In tenant
    // mode this registers the city in the shared registry instead of
    // spinning up a private engine.
    O2SR_RETURN_IF_ERROR(
        PublishServingModel(std::move(staged_), MakeServingOptions(cycle)));
    state->active_snapshot = path;
    state->active_cycle = cycle;
    return Status::Ok();
  }

  // Hot swap into the live engine, retried: a rejected swap quarantines the
  // snapshot file, so each retry re-exports it (from the restored staged
  // model — same learned state) and stages a fresh structure.
  common::RetryStats stats;
  const Status status = common::RunWithRetry(
      options_.retry, "swap",
      [&]() -> Status {
        if (!std::filesystem::exists(path)) {
          O2SR_RETURN_IF_ERROR(RunExportStage(state));
        }
        O2SR_ASSIGN_OR_RETURN(auto fresh_staged, BuildStaged(cycle));
        O2SR_ASSIGN_OR_RETURN(
            const serve::SwapReport swap,
            LiveEngine()->SwapSnapshot(path, std::move(fresh_staged),
                                  CycleConfigHash(cycle),
                                  {canaries_}));
        if (!swap.promoted) return swap.reject_reason;
        return Status::Ok();
      },
      &stats);
  report_.retries += stats.attempts - 1;
  if (stats.attempts > 1) {
    CounterOf("pipeline.retries")->Increment(stats.attempts - 1);
  }
  if (status.ok()) {
    state->active_snapshot = path;
    state->active_cycle = cycle;
    return Status::Ok();
  }

  // Swap budget exhausted: keep serving the prior snapshot (PR 5's ladder
  // keeps the engine healthy on the displaced model) and move on — a
  // continual pipeline must outlive one bad refresh.
  ++state->swap_fallbacks;
  report_.swap_fallbacks = state->swap_fallbacks;
  CounterOf("pipeline.swap_fallbacks")->Increment();
  obs::PipelineEvent event;
  event.kind = obs::PipelineEventKind::kFallback;
  event.cycle = cycle;
  event.stage = PipelineStageName(state->stage);
  event.attempt = stats.attempts;
  event.note = status.ToString();
  Emit(std::move(event));
  O2SR_LOG(WARNING) << "cycle " << cycle
                    << " swap failed after " << stats.attempts
                    << " attempt(s); serving prior snapshot '"
                    << state->active_snapshot << "': " << status.ToString();
  return Status::Ok();
}

common::Status ContinualPipeline::RunServeStage(PipelineJournalState* state) {
  serve::ServingEngine* engine = LiveEngine();
  if (engine == nullptr) {
    return common::FailedPreconditionError(
        "SERVE reached with no serving engine; no snapshot was ever "
        "promoted");
  }
  const int cycle = state->cycle;
  const CycleWorld& world = WorldForCycle(cycle);
  const int num_types = world.data.num_types();
  const int num_regions = world.data.num_regions();

  int served = 0, degraded = 0, shed = 0;
  for (int q = 0; q < options_.serve_queries && num_types > 0; ++q) {
    serve::RankRequest request;
    request.type = q % num_types;
    request.k = 5;
    request.candidates.reserve(num_regions);
    for (int r = 0; r < num_regions; ++r) request.candidates.push_back(r);
    auto response = engine->Rank(request);
    if (!response.ok()) {
      ++shed;
      continue;
    }
    ++served;
    if (response->tier != serve::ServeTier::kFresh) ++degraded;
  }
  report_.served += served;
  report_.degraded += degraded;

  state->completed_cycles = cycle + 1;
  CounterOf("pipeline.cycles_completed")->Increment();

  obs::PipelineEvent event;
  event.kind = obs::PipelineEventKind::kServe;
  event.cycle = cycle;
  event.stage = PipelineStageName(state->stage);
  event.value = served;
  event.note = "degraded=" + std::to_string(degraded) +
               " shed=" + std::to_string(shed);
  Emit(std::move(event));

  const obs::SloSnapshot slo = engine->slo().Snapshot();
  obs::PipelineEvent slo_event;
  slo_event.kind = obs::PipelineEventKind::kSlo;
  slo_event.cycle = cycle;
  slo_event.stage = PipelineStageName(state->stage);
  slo_event.value = slo.burn_rate;
  slo_event.note = slo.ToJson();
  Emit(std::move(slo_event));
  return Status::Ok();
}

common::Status ContinualPipeline::RunDriftStage(PipelineJournalState* state) {
  ++state->cycle;
  const CycleWorld& world = WorldForCycle(state->cycle);
  O2SR_LOG(INFO) << "drifted to cycle " << state->cycle << ": "
                 << world.drift_stats.num_stores << " stores, demand shift "
                 << world.drift_stats.demand_shift_slots << " slots";
  // The products of the previous cycle are stale now.
  trained_.reset();
  trained_cycle_ = -1;
  staged_.reset();
  canaries_.clear();
  return Status::Ok();
}

common::StatusOr<PipelineReport> ContinualPipeline::Run() {
  report_ = PipelineReport();
  transitions_this_run_ = 0;

  std::error_code ec;
  std::filesystem::create_directories(options_.work_dir, ec);
  if (ec) {
    return common::UnavailableError("cannot create pipeline work dir '" +
                                    options_.work_dir + "': " + ec.message());
  }
  if (!options_.event_log_path.empty()) {
    O2SR_RETURN_IF_ERROR(event_log_.OpenFile(options_.event_log_path));
  }

  PipelineJournalState state;
  state.config_hash = BaseConfigHash();
  if (journal_.Exists()) {
    auto loaded = journal_.Load();
    if (loaded.ok()) {
      if (loaded->config_hash != BaseConfigHash()) {
        return common::FailedPreconditionError(
            "journal '" + JournalPath() +
            "' belongs to a different pipeline configuration");
      }
      state = *loaded;
      report_.resumed = true;
      CounterOf("pipeline.resumes")->Increment();
      obs::PipelineEvent event;
      event.kind = obs::PipelineEventKind::kResume;
      event.cycle = state.cycle;
      event.stage = PipelineStageName(state.stage);
      event.note = JournalPath();
      Emit(std::move(event));
      O2SR_LOG(INFO) << "resuming pipeline at cycle " << state.cycle
                     << " stage " << PipelineStageName(state.stage);
    } else if (loaded.status().code() == common::StatusCode::kDataLoss ||
               loaded.status().code() ==
                   common::StatusCode::kFailedPrecondition) {
      // A journal that cannot be trusted is quarantined, not obeyed; the
      // pipeline restarts from TRAIN and re-converges (stages are
      // idempotent, completed training cycles short-circuit via their
      // checkpoints).
      const std::string corrupt = JournalPath() + ".corrupt";
      std::rename(JournalPath().c_str(), corrupt.c_str());
      O2SR_LOG(WARNING) << "journal unreadable ("
                        << loaded.status().ToString() << "); moved to '"
                        << corrupt << "', starting fresh";
    } else {
      return loaded.status();
    }
  }
  report_.start_stage = state.stage;
  report_.start_cycle = state.cycle;

  // Rehydrate the serving engine of a resumed supervisor. An engine that
  // is already live (a second Run() in one process, or a tenant already
  // hosted in the shared registry — adopted, since it is serving the
  // active snapshot) is left alone; re-registering would be refused.
  AdoptTenantIfRegistered();
  if (report_.resumed && !state.active_snapshot.empty() &&
      state.stage != PipelineStage::kDone && LiveEngine() == nullptr) {
    common::RetryStats stats;
    O2SR_RETURN_IF_ERROR(common::RunWithRetry(
        options_.retry, "rehydrate",
        [&]() -> Status {
          O2SR_ASSIGN_OR_RETURN(auto staged,
                                BuildStaged(state.active_cycle));
          O2SR_ASSIGN_OR_RETURN(const serve::Snapshot snap,
                                serve::LoadSnapshot(state.active_snapshot));
          O2SR_RETURN_IF_ERROR(serve::RestoreModel(
              snap, *staged, CycleConfigHash(state.active_cycle)));
          O2SR_RETURN_IF_ERROR(staged->FinalizeServing());
          O2SR_RETURN_IF_ERROR(PublishServingModel(
              std::move(staged), MakeServingOptions(state.active_cycle)));
          return Status::Ok();
        },
        &stats));
    report_.retries += stats.attempts - 1;
  }

  // Journal the initial state of a fresh pipeline so a crash before the
  // first transition still resumes instead of silently restarting.
  if (!report_.resumed) {
    O2SR_RETURN_IF_ERROR(common::RunWithRetry(
        options_.retry, "journal.write",
        [&] { return journal_.Write(state); }));
    CounterOf("pipeline.journal_writes")->Increment();
  }

  bool stop = false;
  while (!stop && state.stage != PipelineStage::kDone) {
    StageGauge()->Set(static_cast<double>(state.stage));
    CycleGauge()->Set(state.cycle);
    switch (state.stage) {
      case PipelineStage::kTrain:
      case PipelineStage::kRetrain:
        O2SR_RETURN_IF_ERROR(RunTrainStage(&state));
        O2SR_RETURN_IF_ERROR(
            Transition(&state, PipelineStage::kExport, &stop));
        break;
      case PipelineStage::kExport:
        O2SR_RETURN_IF_ERROR(RunExportStage(&state));
        O2SR_RETURN_IF_ERROR(
            Transition(&state, PipelineStage::kCanary, &stop));
        break;
      case PipelineStage::kCanary:
        O2SR_RETURN_IF_ERROR(RunCanaryStage(&state));
        O2SR_RETURN_IF_ERROR(Transition(&state, PipelineStage::kSwap, &stop));
        break;
      case PipelineStage::kSwap:
        O2SR_RETURN_IF_ERROR(RunSwapStage(&state));
        O2SR_RETURN_IF_ERROR(
            Transition(&state, PipelineStage::kServe, &stop));
        break;
      case PipelineStage::kServe:
        O2SR_RETURN_IF_ERROR(RunServeStage(&state));
        O2SR_RETURN_IF_ERROR(Transition(
            &state,
            state.completed_cycles >= options_.cycles
                ? PipelineStage::kDone
                : PipelineStage::kDrift,
            &stop));
        break;
      case PipelineStage::kDrift:
        O2SR_RETURN_IF_ERROR(RunDriftStage(&state));
        O2SR_RETURN_IF_ERROR(
            Transition(&state, PipelineStage::kRetrain, &stop));
        break;
      case PipelineStage::kDone:
        break;
    }
  }
  StageGauge()->Set(static_cast<double>(state.stage));

  report_.stopped_early = stop && state.stage != PipelineStage::kDone;
  report_.transitions = state.transitions;
  report_.cycles_completed = state.completed_cycles;
  report_.swap_fallbacks = state.swap_fallbacks;
  report_.active_snapshot = state.active_snapshot;
  return report_;
}

}  // namespace o2sr::pipeline
