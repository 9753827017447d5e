#ifndef O2SR_NN_TRAINER_H_
#define O2SR_NN_TRAINER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "nn/parameter.h"
#include "nn/serialize.h"
#include "obs/telemetry.h"

namespace o2sr::nn {

// Fault-tolerant full-batch training runner shared by every trainable model
// in the repository (O2SiteRec, the standalone courier-capacity training,
// and the gradient baselines).
//
// Each epoch it (1) runs the model's forward/backward callback, (2) sweeps
// loss, gradients and — after the optimizer step — parameters for NaN/Inf,
// and (3) tracks loss divergence. A tripped sentinel rolls the run back to
// the last good snapshot (parameter values, Adam moments, RNG stream),
// halves the learning rate (bounded exponential backoff) and retries, up to
// a configurable recovery budget; an exhausted budget returns a descriptive
// Status instead of training on garbage.
//
// When a checkpoint path is configured, the runner persists its full state
// atomically every few epochs and transparently resumes from an existing
// checkpoint file, such that an interrupted-then-resumed run is
// bit-identical to an uninterrupted one (see tests/checkpoint_test.cc).

struct GuardrailOptions {
  // Per-epoch NaN/Inf sweep over loss, gradients and parameters.
  bool check_finite = true;
  // Divergence monitor: an epoch loss above `divergence_factor` times the
  // best loss seen so far counts as diverged; `divergence_patience`
  // consecutive diverged epochs trip the sentinel. <= 0 disables.
  double divergence_factor = 25.0;
  int divergence_patience = 3;
  // Rollback/backoff budget: how many sentinel trips may be recovered
  // before training gives up with RESOURCE_EXHAUSTED.
  int max_recoveries = 4;
  // Learning-rate multiplier applied on each recovery, floored at
  // `min_learning_rate`.
  double lr_backoff = 0.5;
  double min_learning_rate = 1e-8;
  // Crash-safe checkpointing; empty path disables. A checkpoint is written
  // after every `checkpoint_every` completed epochs and after the final
  // epoch. If the file already exists when training starts, the run
  // resumes from it (FAILED_PRECONDITION if it belongs to another model,
  // DATA_LOSS if it is corrupt).
  std::string checkpoint_path;
  int checkpoint_every = 5;
};
// Recoveries and resumes are narrated through the leveled logger
// (obs/log.h): recoveries at WARNING, resumes at INFO. Set
// O2SR_LOG_LEVEL=off to silence them (the old GuardrailOptions::verbose
// flag is gone).

// Test/diagnostic instrumentation points.
struct TrainHooks {
  // Runs right after the model's forward/backward callback, before the
  // finite sweep; fault-injection tests use it to poison gradients.
  std::function<void(int epoch, ParameterStore& store)> post_backward;
  // Runs after each successfully completed epoch.
  std::function<void(int epoch, double loss)> on_epoch_end;
};

// What actually happened during a guarded run.
struct TrainReport {
  bool resumed = false;  // picked up an existing checkpoint
  int start_epoch = 0;   // first epoch executed in this process
  int epochs_run = 0;    // epochs executed (retries count once)
  int recoveries = 0;    // sentinel trips recovered via rollback
  double final_loss = 0.0;
  double final_learning_rate = 0.0;
  // The run's telemetry, in emission order: one obs::TrainEvent per
  // completed epoch (loss, grad norm, learning rate) plus one per
  // recovery/resume. Epoch durations are the "train.epoch" trace spans.
  std::vector<obs::TrainEvent> events;
};

// One epoch of model-specific work: run forward + backward for epoch
// `epoch`, leaving gradients accumulated in the store, and return the
// epoch's scalar loss. Must be deterministic given the parameter values and
// the state of the RNG passed to RunGuardedTraining (that is what makes
// rollback and resume exact).
using EpochFn = std::function<double(int epoch)>;

// Runs `epochs` guarded epochs. `epoch_rng` is the RNG consumed inside
// `epoch_fn` (dropout, shuffling); it is snapshotted and rolled back with
// the parameters so retried epochs replay the same stream (pass nullptr if
// `epoch_fn` uses no randomness). `report` may be nullptr.
common::Status RunGuardedTraining(ParameterStore* store, AdamOptimizer* adam,
                                  Rng* epoch_rng, int epochs,
                                  const EpochFn& epoch_fn,
                                  const GuardrailOptions& options = {},
                                  const TrainHooks& hooks = {},
                                  TrainReport* report = nullptr);

// --- Warm-start incremental retraining ------------------------------------
//
// The continual pipeline (src/pipeline) refreshes a model on a drifted data
// window. Drift changes the world — stores open and close, so embedding
// tables change row counts between cycles — which rules out a strict
// checkpoint restore. WarmStartParameters transfers whatever the previous
// cycle learned: parameters are matched by name; an exact shape match copies
// the full tensor, a changed shape copies the overlapping top-left block
// (surviving node rows keep their embeddings, new rows keep their fresh
// init), and parameters absent from the donor stay freshly initialized.

struct WarmStartReport {
  int params_matched = 0;   // full tensor copied (name + shape matched)
  int params_partial = 0;   // overlapping block copied (shape changed)
  int params_fresh = 0;     // no donor entry; fresh init kept
  uint64_t scalars_copied = 0;  // total floats transferred
};

WarmStartReport WarmStartParameters(const std::vector<NamedTensor>& donor,
                                    ParameterStore* store);

}  // namespace o2sr::nn

#endif  // O2SR_NN_TRAINER_H_
