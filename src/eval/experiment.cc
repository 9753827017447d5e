#include "eval/experiment.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "eval/metrics.h"
#include "exec/thread_pool.h"
#include "features/order_stats.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace o2sr::eval {

core::InteractionList BuildInteractions(const sim::Dataset& data) {
  const features::OrderStats stats(data);
  core::InteractionList out;
  std::vector<double> max_per_type(data.num_types(), 0.0);
  for (int s = 0; s < stats.num_regions(); ++s) {
    for (int a = 0; a < stats.num_types(); ++a) {
      max_per_type[a] =
          std::max(max_per_type[a], stats.OrdersOfTypeInRegion(s, a));
    }
  }
  for (int s = 0; s < stats.num_regions(); ++s) {
    for (int a = 0; a < stats.num_types(); ++a) {
      const double orders = stats.OrdersOfTypeInRegion(s, a);
      if (orders <= 0.0) continue;
      core::Interaction it;
      it.region = s;
      it.type = a;
      it.orders = orders;
      it.target = orders / max_per_type[a];
      out.push_back(it);
    }
  }
  return out;
}

namespace {

Split SplitWithRng(const sim::Dataset& data,
                   const core::InteractionList& interactions,
                   double train_fraction, Rng& rng) {
  O2SR_CHECK(train_fraction > 0.0 && train_fraction < 1.0);
  std::vector<int> indices(interactions.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = static_cast<int>(i);
  rng.Shuffle(indices);
  const size_t train_count =
      static_cast<size_t>(interactions.size() * train_fraction);
  Split split;
  std::unordered_set<int64_t> train_keys;
  const int64_t T = data.num_types();
  for (size_t i = 0; i < indices.size(); ++i) {
    const core::Interaction& it = interactions[indices[i]];
    if (i < train_count) {
      split.train.push_back(it);
      train_keys.insert(static_cast<int64_t>(it.region) * T + it.type);
    } else {
      split.test.push_back(it);
    }
  }
  // Orders of held-out (region, type) pairs are the prediction target:
  // models only see the training portion of the log.
  for (const sim::Order& o : data.orders) {
    const int64_t key = static_cast<int64_t>(o.store_region) * T + o.type;
    if (train_keys.count(key) > 0) split.train_orders.push_back(o);
  }
  return split;
}

}  // namespace

Split SplitInteractions(const sim::Dataset& data,
                        const core::InteractionList& interactions,
                        const SplitOptions& options) {
  Rng rng(options.seed);
  return SplitWithRng(data, interactions, options.train_fraction, rng);
}

namespace {

EvalResult EvaluateFiltered(const core::InteractionList& test,
                            const std::vector<double>& predictions,
                            const std::vector<bool>& keep,
                            const EvalOptions& options) {
  O2SR_CHECK_EQ(test.size(), predictions.size());
  O2SR_CHECK_EQ(test.size(), keep.size());
  // Group predictions/truths per type.
  std::map<int, std::vector<double>> preds_by_type;
  std::map<int, std::vector<double>> truth_by_type;
  std::vector<double> all_preds, all_targets;
  for (size_t i = 0; i < test.size(); ++i) {
    if (!keep[i]) continue;
    preds_by_type[test[i].type].push_back(predictions[i]);
    truth_by_type[test[i].type].push_back(test[i].orders);
    all_preds.push_back(predictions[i]);
    all_targets.push_back(test[i].target);
  }
  EvalResult result;
  if (all_preds.empty()) return result;
  result.rmse = Rmse(all_preds, all_targets);
  // Per-type ranking metrics are independent, so each type is scored in
  // parallel into its own slot; partials are then summed in ascending type
  // order (the std::map iteration order), which reproduces the serial
  // accumulation bit for bit.
  struct TypeMetrics {
    std::map<int, double> ndcg;
    std::map<int, double> precision;
    bool evaluated = false;
  };
  std::vector<const std::vector<double>*> type_preds;
  std::vector<const std::vector<double>*> type_truths;
  for (const auto& [type, preds] : preds_by_type) {
    type_preds.push_back(&preds);
    type_truths.push_back(&truth_by_type[type]);
  }
  std::vector<TypeMetrics> partials(type_preds.size());
  exec::CurrentPool().ParallelFor(
      static_cast<int64_t>(type_preds.size()), /*grain=*/1,
      [&](int64_t t) {
        const std::vector<double>& preds = *type_preds[t];
        const std::vector<double>& truths = *type_truths[t];
        const int pool = static_cast<int>(preds.size());
        if (pool < options.min_candidates) return;
        int top_n = options.top_n;
        if (options.adaptive_top_n && pool < 2 * options.top_n) {
          top_n = std::min(options.top_n, std::max(10, pool / 2));
        }
        TypeMetrics& tm = partials[t];
        for (int k : options.ndcg_ks) {
          tm.ndcg[k] = NdcgAtK(preds, truths, k, top_n);
        }
        for (int k : options.precision_ks) {
          tm.precision[k] = PrecisionAtK(preds, truths, k, top_n);
        }
        tm.evaluated = true;
      },
      "exec.eval_types");
  for (const TypeMetrics& tm : partials) {
    if (!tm.evaluated) continue;
    for (const auto& [k, v] : tm.ndcg) result.ndcg[k] += v;
    for (const auto& [k, v] : tm.precision) result.precision[k] += v;
    ++result.types_evaluated;
  }
  if (result.types_evaluated > 0) {
    for (auto& [k, v] : result.ndcg) v /= result.types_evaluated;
    for (auto& [k, v] : result.precision) v /= result.types_evaluated;
  }
  return result;
}

}  // namespace

EvalResult Evaluate(const core::InteractionList& test,
                    const std::vector<double>& predictions,
                    const EvalOptions& options) {
  return EvaluateFiltered(test, predictions,
                          std::vector<bool>(test.size(), true), options);
}

EvalResult EvaluateType(const core::InteractionList& test,
                        const std::vector<double>& predictions, int type,
                        const EvalOptions& options) {
  std::vector<bool> keep(test.size());
  for (size_t i = 0; i < test.size(); ++i) keep[i] = test[i].type == type;
  EvalOptions opts = options;
  opts.min_candidates = 1;
  return EvaluateFiltered(test, predictions, keep, opts);
}

EvalResult EvaluateRegions(const core::InteractionList& test,
                           const std::vector<double>& predictions,
                           const std::vector<bool>& keep_region,
                           const EvalOptions& options) {
  std::vector<bool> keep(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    keep[i] = keep_region[test[i].region];
  }
  EvalOptions opts = options;
  opts.min_candidates = std::min(options.min_candidates, 15);
  return EvaluateFiltered(test, predictions, keep, opts);
}

common::StatusOr<EvalResult> RunOnce(core::SiteRecommender& model,
                                     const sim::Dataset& data,
                                     const Split& split,
                                     const EvalOptions& options,
                                     nn::TrainReport* train_report) {
  O2SR_TRACE_SCOPE("eval.run_once");
  static obs::Counter* runs_counter =
      obs::MetricsRegistry::Global().GetCounter("eval.runs");
  runs_counter->Increment();

  core::TrainContext ctx;
  ctx.data = &data;
  ctx.visible_orders = &split.train_orders;
  ctx.train = &split.train;
  nn::TrainReport local_report;
  ctx.report = train_report != nullptr ? train_report : &local_report;
  {
    O2SR_TRACE_SCOPE("eval.train");
    O2SR_RETURN_IF_ERROR(
        model.Train(ctx).WithContext("training " + model.Name()));
  }
  const nn::TrainReport& report = *ctx.report;
  O2SR_LOG(DEBUG) << model.Name() << ": " << report.epochs_run
                  << " epochs, final loss " << report.final_loss << ", "
                  << report.recoveries << " recoveries";
  std::vector<double> predictions;
  {
    O2SR_TRACE_SCOPE("eval.predict");
    O2SR_ASSIGN_OR_RETURN(
        predictions,
        model.Predict(split.test).WithContext("predicting " + model.Name()));
  }
  O2SR_TRACE_SCOPE("eval.evaluate");
  return Evaluate(split.test, predictions, options);
}

}  // namespace o2sr::eval
