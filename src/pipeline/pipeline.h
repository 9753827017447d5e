#ifndef O2SR_PIPELINE_PIPELINE_H_
#define O2SR_PIPELINE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "core/o2siterec.h"
#include "core/o2siterec_recommender.h"
#include "obs/telemetry.h"
#include "pipeline/journal.h"
#include "serve/engine.h"
#include "serve/tenant.h"
#include "sim/config.h"
#include "sim/drift.h"

namespace o2sr::pipeline {

// Supervised continual-retraining runtime: drives the journaled
// TRAIN -> EXPORT -> CANARY -> SWAP -> SERVE -> DRIFT -> RETRAIN machine
// (pipeline/journal.h) over a drifting world (sim/drift.h), with every
// fallible stage wrapped in common::RunWithRetry and failed swaps falling
// back to the prior snapshot via the serving engine's quarantine path.
//
// Crash contract: the supervisor journals before executing each stage, and
// every stage body is idempotent (training resumes from its own per-cycle
// checkpoint, exports/journals publish atomically, canaries are recomputed
// from artifacts). Killing the process at any stage boundary and calling
// Run() again continues the same pipeline and converges to bit-identical
// snapshots — tests/pipeline_test.cc proves this at every boundary.
//
// Observability (prefix "pipeline"): stage/cycle gauges, cycles_completed /
// retries / swap_fallbacks / resumes / journal_writes counters, plus one
// obs::PipelineEvent per transition/retry/fallback/resume/serve (JSONL when
// `event_log_path` is set). The serving engine's health transitions
// (SERVING / DEGRADED / LAME_DUCK) surface as kHealth events, and every
// SERVE stage appends one kSlo event carrying the engine's rolling-window
// SLO snapshot (burn rate in `value`, full JSON in `note`).

struct PipelineOptions {
  // The base world, model and drift process. The config fingerprint over
  // these three guards journal resume.
  sim::SimConfig world;
  core::O2SiteRecConfig model;
  sim::DriftConfig drift;

  // Refresh cycles to complete before DONE (cycle k trains on drift
  // epoch k). Env: O2SR_PIPELINE_CYCLES.
  int cycles = 3;
  // Directory holding the journal, per-cycle training checkpoints and
  // snapshots. Created if missing. Env: O2SR_PIPELINE_DIR.
  std::string work_dir = "pipeline_state";
  // Retry policy around train / export / restore / swap. Env:
  // O2SR_PIPELINE_RETRIES (max_attempts), O2SR_PIPELINE_BACKOFF_MS
  // (initial backoff).
  common::RetryPolicy retry;

  // Evaluation split driven through training (train side) each cycle.
  double train_fraction = 0.8;
  uint64_t split_seed = 1;
  // Rank() calls issued during each SERVE stage.
  int serve_queries = 24;
  // Canary queries per swap.
  int canary_queries = 4;
  // JSONL sink for pipeline events; empty disables.
  std::string event_log_path;

  // Multi-tenant publishing: when `tenants` is set (borrowed; must outlive
  // the pipeline) and `tenant_name` is non-empty, the pipeline publishes
  // its serving model into the registry under that name instead of owning
  // a private engine — first promotion registers the tenant, every later
  // cycle hot-swaps it through TenantRegistry::Swap, and the SERVE stage
  // queries the tenant's engine. Several pipelines (one per city) can then
  // share one registry, which is exactly the O2O deployment shape.
  serve::TenantRegistry* tenants = nullptr;
  std::string tenant_name;

  // Test hook: stop cleanly after this many journal transitions in THIS
  // process (the journal is already written, so the next Run() resumes) —
  // a deterministic "kill at stage boundary". < 0 disables.
  int64_t max_transitions = -1;
};

// Fills `options` from the O2SR_PIPELINE_* knobs listed above (unset
// knobs leave the current value).
void ApplyPipelineEnv(PipelineOptions* options);

// What one Run() actually did.
struct PipelineReport {
  bool resumed = false;           // picked up an existing journal
  PipelineStage start_stage = PipelineStage::kTrain;
  int start_cycle = 0;
  int cycles_completed = 0;       // lifetime total (includes prior runs)
  int retries = 0;                // retry attempts beyond the first, this run
  int swap_fallbacks = 0;         // lifetime total
  int64_t transitions = 0;        // lifetime total
  bool stopped_early = false;     // max_transitions hit; journal is current
  std::string active_snapshot;    // snapshot serving when Run() returned
  // SERVE-stage tallies, this run.
  int served = 0;
  int degraded = 0;
  std::vector<obs::PipelineEvent> events;  // this run's events
};

class ContinualPipeline {
 public:
  explicit ContinualPipeline(PipelineOptions options);
  ~ContinualPipeline();
  ContinualPipeline(const ContinualPipeline&) = delete;
  ContinualPipeline& operator=(const ContinualPipeline&) = delete;

  // Runs the machine until DONE (or max_transitions). Resumes from the
  // journal when one exists; FAILED_PRECONDITION when the journal belongs
  // to a different configuration. A corrupt journal is moved aside to
  // `<journal>.corrupt` and the pipeline starts fresh (robustness beats
  // preserving a file that cannot be trusted).
  common::StatusOr<PipelineReport> Run();

  // The engine serving the active snapshot (null before the first SWAP):
  // the pipeline's own, or its tenant's when publishing into a registry.
  const serve::ServingEngine* engine() const { return LiveEngine(); }

  const PipelineOptions& options() const { return options_; }

 private:
  struct CycleWorld;  // dataset + split + interactions of one drift epoch

  std::string JournalPath() const;
  std::string CheckpointPath(int cycle) const;
  std::string SnapshotPath(int cycle) const;
  uint64_t BaseConfigHash() const;
  uint64_t CycleConfigHash(int cycle) const;

  const CycleWorld& WorldForCycle(int cycle);

  common::Status RunTrainStage(PipelineJournalState* state);
  common::Status RunExportStage(PipelineJournalState* state);
  common::Status RunCanaryStage(PipelineJournalState* state);
  common::Status RunSwapStage(PipelineJournalState* state);
  common::Status RunServeStage(PipelineJournalState* state);
  common::Status RunDriftStage(PipelineJournalState* state);

  common::StatusOr<std::unique_ptr<core::O2SiteRecRecommender>> BuildStaged(
      int cycle);
  std::vector<serve::CanaryQuery> BuildCanaries(
      const core::SiteRecommender& staged, int cycle);
  // Engine options for `cycle`: popularity prior plus the health-transition
  // callback that turns engine health changes into kHealth events.
  serve::ServingOptions MakeServingOptions(int cycle);

  // True when publishing into a tenant registry instead of a private engine.
  bool PublishesTenant() const {
    return options_.tenants != nullptr && !options_.tenant_name.empty();
  }
  // The live serving engine: the pinned tenant's, or the private engine_.
  serve::ServingEngine* LiveEngine() const;
  // Tenant mode: pins a tenant an earlier pipeline (or Run) already
  // registered in the shared registry, so resume hot-swaps into the live
  // engine instead of re-registering the name.
  void AdoptTenantIfRegistered();
  // Hands `model` to the serving side: registers the tenant or creates the
  // private engine. Used by first promotion and by rehydration.
  common::Status PublishServingModel(
      std::unique_ptr<core::O2SiteRecRecommender> model,
      serve::ServingOptions serving_options);

  void Emit(obs::PipelineEvent event);
  common::Status Transition(PipelineJournalState* state, PipelineStage next,
                            bool* stop);

  PipelineOptions options_;
  PipelineJournal journal_;
  obs::PipelineEventLog event_log_;
  PipelineReport report_;
  int64_t transitions_this_run_ = 0;

  // In-memory stage products; all recomputable from artifacts on resume.
  std::unique_ptr<CycleWorld> world_;                // current cycle's world
  int world_cycle_ = -1;
  std::unique_ptr<core::O2SiteRecRecommender> trained_;  // TRAIN product
  int trained_cycle_ = -1;
  std::unique_ptr<core::O2SiteRecRecommender> staged_;   // CANARY product
  std::vector<serve::CanaryQuery> canaries_;
  std::unique_ptr<core::O2SiteRecRecommender> serving_model_;  // engine's
  std::unique_ptr<serve::ServingEngine> engine_;
  // Pin on the published tenant (tenant mode only): keeps the engine alive
  // for this pipeline even if the tenant is concurrently removed.
  serve::TenantRegistry::TenantPtr tenant_;
};

}  // namespace o2sr::pipeline

#endif  // O2SR_PIPELINE_PIPELINE_H_
