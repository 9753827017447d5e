#ifndef O2SR_CORE_RECOMMENDER_H_
#define O2SR_CORE_RECOMMENDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/interaction.h"
#include "exec/thread_pool.h"
#include "nn/parameter.h"
#include "nn/trainer.h"
#include "sim/dataset.h"

namespace o2sr::core {

// Everything a training run needs, bundled. The positional
// (data, visible_orders, train, hooks, report) signature grew one parameter
// per PR; the context struct keeps call sites stable as the surface evolves
// and gives the execution layer a seat at the table.
//
// `data`, `visible_orders` and `train` are required (Train returns
// InvalidArgument when null); they are pointers only because a context is a
// non-owning view that outlives no call. `visible_orders` is the portion of
// the order log the model may learn from (graph/feature construction);
// held-out (region, type) order counts are the prediction target and must
// not leak in.
struct TrainContext {
  const sim::Dataset* data = nullptr;
  const std::vector<sim::Order>* visible_orders = nullptr;
  const InteractionList* train = nullptr;
  // Diagnostic surface of the guarded trainer: fault-injection hooks, and
  // the report that receives the run's obs::TrainEvents. Models that train
  // without nn::RunGuardedTraining may ignore them.
  nn::TrainHooks hooks;
  nn::TrainReport* report = nullptr;
  // Execution pool for the run's parallel kernels (tensor ops, graph
  // builds). Null means "whatever exec::CurrentPool() resolves to", i.e.
  // the caller's PoolScope or the process-wide pool.
  exec::ThreadPool* pool = nullptr;
  // Donor parameters from a previous training cycle. When set, models with
  // a ParameterStore apply nn::WarmStartParameters after building their
  // structure and before the first epoch, so retraining on a drifted window
  // starts from what the last cycle learned instead of a fresh init.
  // Matching is by name with partial-shape transfer; see nn/trainer.h.
  const std::vector<nn::NamedTensor>* warm_start = nullptr;
};

// Null-checks the required TrainContext fields. Implementations call this
// first so every model reports missing inputs the same way.
inline common::Status ValidateTrainContext(const TrainContext& ctx) {
  if (ctx.data == nullptr) {
    return common::InvalidArgumentError("TrainContext.data is null");
  }
  if (ctx.visible_orders == nullptr) {
    return common::InvalidArgumentError(
        "TrainContext.visible_orders is null");
  }
  if (ctx.train == nullptr) {
    return common::InvalidArgumentError("TrainContext.train is null");
  }
  return common::Status::Ok();
}

// Common interface of every store-site recommendation method in the
// repository: O2-SiteRec, its ablation variants, and the six baselines.
class SiteRecommender {
 public:
  virtual ~SiteRecommender() = default;

  virtual std::string Name() const = 0;

  // Trains the model on the bundled inputs. Returns a descriptive error
  // instead of aborting on recoverable failures (missing/untrainable
  // input, exhausted numeric-recovery budget); callers that cannot degrade
  // use O2SR_CHECK_OK. Parallel kernels inside the run dispatch to
  // `ctx.pool` when set.
  virtual common::Status Train(const TrainContext& ctx) = 0;

  // Batched inference: predicted normalized order count per (region, type)
  // pair, aligned with `pairs`. Fallible by design — a pair the model has
  // no node for (e.g. a region without stores) is an InvalidArgument error
  // naming the pair, not a silent zero. Callers that need every pair
  // scored restrict `pairs` to the model's domain first (the eval split
  // and SiteRecommendationService both do).
  virtual common::StatusOr<std::vector<double>> Predict(
      const InteractionList& pairs) const = 0;

  // --- Serving hooks (src/serve) ---------------------------------------
  //
  // The offline-train / online-serve split rests on three optional hooks:
  // a serving process calls PrepareServing to rebuild the model's
  // *structure* (graphs, features, parameter shapes) from the same data
  // view the trainer saw — without running a single epoch — then overwrites
  // the parameter values from an exported snapshot, after which Predict is
  // bit-identical to the trained original. Models that keep no
  // ParameterStore (e.g. heuristic baselines) return nullptr / UNIMPLEMENTED
  // and cannot be snapshot-served.

  // Builds model structure exactly as Train would (same parameter names,
  // shapes and creation order) but leaves the initial values untrained and
  // marks the model ready for Predict. Deterministic: two processes calling
  // this on the same inputs and config build identical structure.
  virtual common::Status PrepareServing(const TrainContext& ctx) {
    (void)ctx;
    return common::UnimplementedError(
        Name() + " does not support snapshot serving");
  }

  // The model's learned state, for snapshot export/restore. Null when the
  // model has no trainable parameters.
  virtual const nn::ParameterStore* parameter_store() const {
    return nullptr;
  }
  virtual nn::ParameterStore* mutable_parameter_store() { return nullptr; }

  // Called by the serving engine once the learned state is final (after
  // Train or a snapshot restore); models precompute their inference tables
  // here (e.g. O2-SiteRec materializes per-period node embeddings so each
  // query skips the graph forward pass).
  virtual common::Status FinalizeServing() { return common::Status::Ok(); }

  // True when Predict can score (region, *) pairs — the serving engine
  // filters candidate regions through this instead of tripping Predict's
  // strict unknown-pair error.
  virtual bool CanScoreRegion(int region) const {
    (void)region;
    return true;
  }

  // Serving-path inference; contract: bit-identical to Predict. The default
  // is Predict itself; models with a FinalizeServing table override this to
  // score from the table.
  virtual common::StatusOr<std::vector<double>> ServingPredict(
      const InteractionList& pairs) const {
    return Predict(pairs);
  }
};

}  // namespace o2sr::core

#endif  // O2SR_CORE_RECOMMENDER_H_
