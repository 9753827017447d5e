#ifndef O2SR_EVAL_EXPERIMENT_H_
#define O2SR_EVAL_EXPERIMENT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/interaction.h"
#include "core/recommender.h"
#include "nn/trainer.h"
#include "sim/dataset.h"

namespace o2sr::eval {

// Builds the full interaction set from a dataset: one entry per
// (store-region, type) pair with at least one order; `target` is the order
// count normalized by the type's maximum (so predictions and RMSE live in
// [0, 1], matching the paper's reported scale).
core::InteractionList BuildInteractions(const sim::Dataset& data);

// An 80/20 split of interactions plus the order log restricted to training
// interactions (what models may learn from).
struct Split {
  core::InteractionList train;
  core::InteractionList test;
  std::vector<sim::Order> train_orders;
};

// Split parameters. The seed fully determines the shuffle, so two calls
// with the same options produce the same split — callers no longer manage
// an Rng whose state the split consumes.
struct SplitOptions {
  double train_fraction = 0.8;
  uint64_t seed = 0;
};
Split SplitInteractions(const sim::Dataset& data,
                        const core::InteractionList& interactions,
                        const SplitOptions& options);

// Evaluation options (paper §IV-A4: NDCG@{3,5,10}, Precision@{3,5,10} with
// N = 30, plus RMSE).
struct EvalOptions {
  std::vector<int> ndcg_ks = {3, 5, 10};
  std::vector<int> precision_ks = {3, 5, 10};
  int top_n = 30;
  // Types whose test candidate set is smaller than this are skipped for the
  // ranking metrics (their top-N would cover every candidate).
  int min_candidates = 40;
  // When a type's candidate pool is small relative to top_n, shrink the
  // relevant set to max(10, pool/2) so the metric stays discriminative
  // (with pool <= N every candidate is "relevant" and all rankings score
  // 1). The paper's pools are far larger than N = 30, so this only differs
  // from the paper's definition on small pools. See DESIGN.md.
  bool adaptive_top_n = true;
};

// Averaged metrics over store types (ranking) and pairs (RMSE).
struct EvalResult {
  std::map<int, double> ndcg;       // k -> NDCG@k
  std::map<int, double> precision;  // k -> Precision@k
  double rmse = 0.0;
  int types_evaluated = 0;
};

// Scores predictions for the test set: ranking metrics are computed per
// store type over its candidate regions and averaged (paper §IV-A2).
EvalResult Evaluate(const core::InteractionList& test,
                    const std::vector<double>& predictions,
                    const EvalOptions& options = {});

// Per-type evaluation used by Fig. 12-13: metrics for a single store type.
EvalResult EvaluateType(const core::InteractionList& test,
                        const std::vector<double>& predictions, int type,
                        const EvalOptions& options = {});

// Evaluation restricted to regions accepted by `keep_region` (Fig. 14's
// downtown/suburb/average split).
EvalResult EvaluateRegions(const core::InteractionList& test,
                           const std::vector<double>& predictions,
                           const std::vector<bool>& keep_region,
                           const EvalOptions& options = {});

// Runs one train+evaluate round of a recommender on a prepared split.
// Training and prediction failures (untrainable input, exhausted
// numeric-recovery budget, out-of-domain test pairs) propagate as the
// Status; callers that treat them as fatal unwrap with .value(), which
// CHECK-aborts with the message.
//
// `train_report` (may be null) receives the run's TrainReport, whose
// `events` field holds the guarded trainer's telemetry (epoch loss, grad
// norm, learning rate, recovery/resume events).
common::StatusOr<EvalResult> RunOnce(core::SiteRecommender& model,
                                     const sim::Dataset& data,
                                     const Split& split,
                                     const EvalOptions& options = {},
                                     nn::TrainReport* train_report = nullptr);

}  // namespace o2sr::eval

#endif  // O2SR_EVAL_EXPERIMENT_H_
