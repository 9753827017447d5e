#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace o2sr::serve {

namespace {

bool BetterRanked(const RankedSite& a, const RankedSite& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.region < b.region;
}

// Top-k of (pairs, scores) by (score desc, region asc).
std::vector<RankedSite> RankFromScores(const core::InteractionList& pairs,
                                       const std::vector<double>& scores,
                                       int k) {
  std::vector<RankedSite> ranked(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ranked[i] = {pairs[i].region, scores[i]};
  }
  const size_t keep = std::min<size_t>(static_cast<size_t>(k), ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    BetterRanked);
  ranked.resize(keep);
  return ranked;
}

// Scorer failures that are contract violations (bad request, wrong model
// state) must surface to the caller; anything else (transient/infra) sends
// the request down the fallback ladder instead.
bool IsContractError(common::StatusCode code) {
  return code == common::StatusCode::kInvalidArgument ||
         code == common::StatusCode::kFailedPrecondition ||
         code == common::StatusCode::kOutOfRange ||
         code == common::StatusCode::kUnimplemented;
}

// Dedupe candidates and drop regions the model cannot score, into
// `scratch` buffers; the surviving order is irrelevant (the result is
// fully ordered by score).
void CollectScorablePairs(const core::SiteRecommender& model, int type,
                          const std::vector<int>& candidates,
                          std::unordered_set<int>* seen,
                          core::InteractionList* pairs) {
  seen->clear();
  pairs->clear();
  for (int region : candidates) {
    if (!seen->insert(region).second) continue;
    if (!model.CanScoreRegion(region)) continue;
    core::Interaction it;
    it.region = region;
    it.type = type;
    pairs->push_back(it);
  }
}

core::InteractionList ScorablePairs(const core::SiteRecommender& model,
                                    int type,
                                    const std::vector<int>& candidates) {
  std::unordered_set<int> seen;
  core::InteractionList pairs;
  CollectScorablePairs(model, type, candidates, &seen, &pairs);
  return pairs;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kFresh:
      return "fresh";
    case ServeTier::kStaleCache:
      return "stale";
    case ServeTier::kPrior:
      return "prior";
  }
  return "unknown";
}

const char* ServeHealthName(ServeHealth health) {
  switch (health) {
    case ServeHealth::kServing:
      return "SERVING";
    case ServeHealth::kDegraded:
      return "DEGRADED";
    case ServeHealth::kLameDuck:
      return "LAME_DUCK";
  }
  return "unknown";
}

bool PopularityPrior::Score(int type, int region, double* out) const {
  if (type < 0 || static_cast<size_t>(type) >= by_type.size()) return false;
  const auto it = by_type[type].find(region);
  if (it == by_type[type].end()) return false;
  *out = it->second;
  return true;
}

PopularityPrior BuildPopularityPrior(
    int num_types, const core::InteractionList& interactions) {
  PopularityPrior prior;
  if (num_types <= 0) return prior;
  prior.by_type.resize(static_cast<size_t>(num_types));
  std::vector<double> type_max(static_cast<size_t>(num_types), 0.0);
  for (const core::Interaction& it : interactions) {
    if (it.type < 0 || it.type >= num_types) continue;
    double& cell = prior.by_type[it.type][it.region];
    cell = std::max(cell, it.orders);
    type_max[it.type] = std::max(type_max[it.type], it.orders);
  }
  for (int t = 0; t < num_types; ++t) {
    if (type_max[t] <= 0.0) continue;
    for (auto& [region, score] : prior.by_type[t]) score /= type_max[t];
  }
  return prior;
}

ServingOptions ResolveServingOptions(ServingOptions options) {
  using common::EnvDouble;
  using common::EnvInt;
  using common::Knob;
  if (options.cache_capacity < 0) {
    options.cache_capacity = EnvInt(Knob::kServeCache);
  }
  if (options.num_shards > 0) {
    options.num_shards = std::min(options.num_shards, 64);
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    options.num_shards = static_cast<int>(EnvInt(
        Knob::kServeShards,
        std::clamp<int>(hw == 0 ? 1 : static_cast<int>(hw), 1, 16)));
  }
  if (options.max_inflight < 0) {
    options.max_inflight = EnvInt(Knob::kServeMaxInflight);
  }
  if (options.default_deadline_ms < 0) {
    options.default_deadline_ms = EnvDouble(Knob::kServeDeadlineMs);
  }
  if (!(options.slo_ms > 0.0)) options.slo_ms = EnvDouble(Knob::kServeSloMs);
  if (!(options.slo_target > 0.0 && options.slo_target < 1.0)) {
    options.slo_target = EnvDouble(Knob::kServeSloTarget);
  }
  return options;
}

ServingEngine::ServingEngine(core::SiteRecommender* model,
                             const ServingOptions& options)
    : options_(ResolveServingOptions(options)),
      admission_(options_.max_inflight),
      slo_(obs::SloConfig{options_.slo_ms, options_.slo_target},
           options.metrics_prefix + ".slo"),
      requests_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".requests")),
      batches_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".batches")),
      pairs_scored_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".pairs_scored")),
      shed_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".shed")),
      degraded_responses_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".degraded_responses")),
      stale_pairs_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".fallback.stale_pairs")),
      prior_pairs_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".fallback.prior_pairs")),
      swaps_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".swaps")),
      swap_rejects_(obs::MetricsRegistry::Global().GetCounter(
          options.metrics_prefix + ".swap_rejects")),
      health_gauge_(obs::MetricsRegistry::Global().GetGauge(
          options.metrics_prefix + ".health_state")),
      epoch_gauge_(obs::MetricsRegistry::Global().GetGauge(
          options.metrics_prefix + ".epoch")),
      latency_ms_(obs::MetricsRegistry::Global().GetHistogram(
          options.metrics_prefix + ".rank_latency_ms",
          obs::DefaultLatencyBucketsMs())) {
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<EngineShard>();
    shard->cache = std::make_unique<ScoreCache>(
        options_.cache_capacity, options.cache_shards,
        options.metrics_prefix + ".cache");
    shards_.push_back(std::move(shard));
  }
  auto active = std::make_shared<Active>();
  active->model = model;
  active->epoch = 1;
  active_ = std::move(active);
  health_gauge_->Set(static_cast<double>(ServeHealth::kServing));
  epoch_gauge_->Set(1.0);
}

common::StatusOr<std::unique_ptr<ServingEngine>> ServingEngine::Create(
    core::SiteRecommender* model, const ServingOptions& options) {
  if (model == nullptr) {
    return common::InvalidArgumentError("ServingEngine: model is null");
  }
  {
    // The finalize pass (inference-table build) runs its kernels on the
    // engine's pool too.
    exec::PoolScope pool_scope(options.pool != nullptr
                                   ? options.pool
                                   : &exec::CurrentPool());
    O2SR_RETURN_IF_ERROR(model->FinalizeServing());
  }
  return std::unique_ptr<ServingEngine>(new ServingEngine(model, options));
}

ServingEngine::EngineShard& ServingEngine::ShardForThisThread() const {
  // A thread's id is stable for its lifetime, so every request from one
  // driver thread lands on one shard: single-threaded runs are fully
  // deterministic and a thread-per-core fleet spreads across shards.
  const size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return *shards_[h % shards_.size()];
}

std::shared_ptr<const ServingEngine::Active> ServingEngine::CurrentActive()
    const {
  std::lock_guard<std::mutex> lock(active_mutex_);
  return active_;
}

const core::SiteRecommender& ServingEngine::model() const {
  return *CurrentActive()->model;
}

uint64_t ServingEngine::epoch() const { return CurrentActive()->epoch; }

ServeHealth ServingEngine::health() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  return health_;
}

EngineShardStats ServingEngine::ShardStats(int shard) const {
  EngineShardStats s;
  if (shard < 0 || shard >= num_shards()) return s;
  const EngineShard& es = *shards_[static_cast<size_t>(shard)];
  s.requests = es.counters.requests.load(std::memory_order_relaxed);
  s.batches = es.counters.batches.load(std::memory_order_relaxed);
  s.shed = es.counters.shed.load(std::memory_order_relaxed);
  s.pairs_scored = es.counters.pairs_scored.load(std::memory_order_relaxed);
  s.degraded_responses =
      es.counters.degraded.load(std::memory_order_relaxed);
  s.stale_pairs = es.counters.stale_pairs.load(std::memory_order_relaxed);
  s.prior_pairs = es.counters.prior_pairs.load(std::memory_order_relaxed);
  s.cache = es.cache->stats();
  return s;
}

EngineShardStats ServingEngine::TotalShardStats() const {
  EngineShardStats total;
  for (int i = 0; i < num_shards(); ++i) {
    const EngineShardStats s = ShardStats(i);
    total.requests += s.requests;
    total.batches += s.batches;
    total.shed += s.shed;
    total.pairs_scored += s.pairs_scored;
    total.degraded_responses += s.degraded_responses;
    total.stale_pairs += s.stale_pairs;
    total.prior_pairs += s.prior_pairs;
    total.cache.hits += s.cache.hits;
    total.cache.misses += s.cache.misses;
    total.cache.stale_hits += s.cache.stale_hits;
    total.cache.evictions += s.cache.evictions;
    total.cache.insertions += s.cache.insertions;
  }
  return total;
}

ScoreCache::Stats ServingEngine::CacheStats() const {
  return TotalShardStats().cache;
}

void ServingEngine::EnterLameDuck() {
  ServeHealth from;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (health_ == ServeHealth::kLameDuck) return;
    from = health_;
    health_ = ServeHealth::kLameDuck;
    health_relaxed_.store(static_cast<int>(ServeHealth::kLameDuck),
                          std::memory_order_relaxed);
    health_gauge_->Set(static_cast<double>(ServeHealth::kLameDuck));
  }
  O2SR_LOG(INFO) << "serving engine entering LAME_DUCK: new requests are "
                    "shed, in-flight requests drain";
  NotifyHealthChange(from, ServeHealth::kLameDuck);
}

void ServingEngine::RecordOutcome(ServeTier tier) const {
  // Fast path: a fresh response while SERVING changes nothing — skip the
  // health lock entirely, so the steady-state hot path stays lock-free
  // here. The relaxed read may trail a racing transition by one response;
  // the slow path below re-reads under the lock before acting.
  if (tier == ServeTier::kFresh &&
      health_relaxed_.load(std::memory_order_relaxed) ==
          static_cast<int>(ServeHealth::kServing)) {
    return;
  }
  ServeHealth from = ServeHealth::kServing;
  ServeHealth to = ServeHealth::kServing;
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (health_ == ServeHealth::kLameDuck) return;  // terminal
    if (tier != ServeTier::kFresh) {
      degraded_responses_->Increment();
      degraded_total_.fetch_add(1, std::memory_order_relaxed);
      fresh_streak_ = 0;
      if (health_ == ServeHealth::kServing) {
        health_ = ServeHealth::kDegraded;
        health_relaxed_.store(static_cast<int>(ServeHealth::kDegraded),
                              std::memory_order_relaxed);
        health_gauge_->Set(static_cast<double>(ServeHealth::kDegraded));
        O2SR_LOG(WARNING) << "serving health SERVING -> DEGRADED (served a "
                          << ServeTierName(tier) << "-tier response)";
        from = ServeHealth::kServing;
        to = ServeHealth::kDegraded;
        changed = true;
      }
    } else if (health_ == ServeHealth::kDegraded) {
      if (++fresh_streak_ >= options_.health_recovery_streak) {
        health_ = ServeHealth::kServing;
        fresh_streak_ = 0;
        health_relaxed_.store(static_cast<int>(ServeHealth::kServing),
                              std::memory_order_relaxed);
        health_gauge_->Set(static_cast<double>(ServeHealth::kServing));
        O2SR_LOG(INFO) << "serving health DEGRADED -> SERVING ("
                       << options_.health_recovery_streak
                       << " consecutive fresh responses)";
        from = ServeHealth::kDegraded;
        to = ServeHealth::kServing;
        changed = true;
      }
    }
  }
  if (changed) NotifyHealthChange(from, to);
}

void ServingEngine::NotifyHealthChange(ServeHealth from,
                                       ServeHealth to) const {
  if (options_.on_health_change) options_.on_health_change(from, to);
}

common::StatusOr<RankResponse> ServingEngine::ShedRequest(
    EngineShard& shard, const char* reason, double latency_ms,
    bool deadline_miss) const {
  shed_->Increment();
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  shard.counters.shed.fetch_add(1, std::memory_order_relaxed);
  obs::SloOutcome outcome;
  outcome.latency_ms = latency_ms;
  outcome.shed = true;
  outcome.deadline_miss = deadline_miss;
  slo_.Record(outcome);
  return common::ResourceExhaustedError(std::string("request shed: ") +
                                        reason);
}

common::StatusOr<std::vector<double>> ServingEngine::ScoreFresh(
    EngineShard& shard, const Active& active,
    const core::InteractionList& pairs) const {
  ScoreCache& cache = *shard.cache;
  std::vector<double> out(pairs.size(), 0.0);
  // Cache pass: collect the misses, preserving query order.
  core::InteractionList misses;
  std::vector<size_t> miss_slots;
  for (size_t i = 0; i < pairs.size(); ++i) {
    double cached = 0.0;
    if (cache.Lookup(ScoreCache::Key(pairs[i].type, pairs[i].region),
                     active.epoch, &cached)) {
      out[i] = cached;
    } else {
      misses.push_back(pairs[i]);
      miss_slots.push_back(i);
    }
  }
  if (!misses.empty()) {
    common::FaultInjector& faults = common::FaultInjector::Global();
    faults.InjectDelay("score");
    O2SR_RETURN_IF_ERROR(faults.InjectError("score"));
    exec::PoolScope pool_scope(options_.pool != nullptr
                                   ? options_.pool
                                   : &exec::CurrentPool());
    O2SR_ASSIGN_OR_RETURN(const std::vector<double> scores,
                          active.model->ServingPredict(misses));
    pairs_scored_->Increment(misses.size());
    pairs_scored_total_.fetch_add(misses.size(), std::memory_order_relaxed);
    shard.counters.pairs_scored.fetch_add(misses.size(),
                                          std::memory_order_relaxed);
    for (size_t j = 0; j < misses.size(); ++j) {
      out[miss_slots[j]] = scores[j];
      cache.Insert(ScoreCache::Key(misses[j].type, misses[j].region),
                   active.epoch, scores[j]);
    }
  }
  return out;
}

common::StatusOr<std::vector<double>> ServingEngine::Score(
    const core::InteractionList& pairs) const {
  return ScoreFresh(ShardForThisThread(), *CurrentActive(), pairs);
}

common::Status ServingEngine::ScoreLadder(EngineShard& shard,
                                          const Active& active,
                                          const core::InteractionList& pairs,
                                          const Deadline& deadline,
                                          Scratch* scratch,
                                          ServeTier* tier) const {
  ScoreCache& cache = *shard.cache;
  scratch->scores.assign(pairs.size(), 0.0);
  *tier = ServeTier::kFresh;
  core::InteractionList& misses = scratch->misses;
  std::vector<size_t>& miss_slots = scratch->miss_slots;
  misses.clear();
  miss_slots.clear();
  for (size_t i = 0; i < pairs.size(); ++i) {
    double cached = 0.0;
    if (cache.Lookup(ScoreCache::Key(pairs[i].type, pairs[i].region),
                     active.epoch, &cached)) {
      scratch->scores[i] = cached;
    } else {
      misses.push_back(pairs[i]);
      miss_slots.push_back(i);
    }
  }
  if (misses.empty()) return common::Status::Ok();

  // Rung 1: fresh scoring, budget permitting. The injected delay stands in
  // for a stalled scorer, so the deadline is re-checked after it — exactly
  // the check a real engine makes after waiting on a busy executor.
  common::Status fresh_status = common::Status::Ok();
  if (deadline.expired()) {
    fresh_status = common::ResourceExhaustedError(
        "deadline expired before scoring");
  } else {
    common::FaultInjector& faults = common::FaultInjector::Global();
    faults.InjectDelay("score");
    if (deadline.expired()) {
      fresh_status = common::ResourceExhaustedError(
          "deadline expired waiting for the scorer");
    } else {
      fresh_status = faults.InjectError("score");
    }
  }
  if (fresh_status.ok()) {
    exec::PoolScope pool_scope(options_.pool != nullptr
                                   ? options_.pool
                                   : &exec::CurrentPool());
    auto scored = active.model->ServingPredict(misses);
    if (scored.ok()) {
      pairs_scored_->Increment(misses.size());
      pairs_scored_total_.fetch_add(misses.size(),
                                    std::memory_order_relaxed);
      shard.counters.pairs_scored.fetch_add(misses.size(),
                                            std::memory_order_relaxed);
      for (size_t j = 0; j < misses.size(); ++j) {
        scratch->scores[miss_slots[j]] = (*scored)[j];
        cache.Insert(ScoreCache::Key(misses[j].type, misses[j].region),
                     active.epoch, (*scored)[j]);
      }
      return common::Status::Ok();
    }
    fresh_status = scored.status();
  }
  if (IsContractError(fresh_status.code())) return fresh_status;

  // Rungs 2 + 3: stale cache, then popularity prior, per pair. A pair
  // neither rung can answer fails the request with the original cause.
  uint64_t stale_served = 0, prior_served = 0;
  for (size_t j = 0; j < misses.size(); ++j) {
    const core::Interaction& it = misses[j];
    double value = 0.0;
    if (cache.LookupStale(ScoreCache::Key(it.type, it.region), &value)) {
      scratch->scores[miss_slots[j]] = value;
      ++stale_served;
      *tier = std::max(*tier, ServeTier::kStaleCache);
    } else if (options_.prior.Score(it.type, it.region, &value)) {
      scratch->scores[miss_slots[j]] = value;
      ++prior_served;
      *tier = ServeTier::kPrior;
    } else {
      return fresh_status.WithContext(
          "pair (type " + std::to_string(it.type) + ", region " +
          std::to_string(it.region) + ") exhausted the fallback ladder");
    }
  }
  if (stale_served > 0) {
    stale_pairs_->Increment(stale_served);
    shard.counters.stale_pairs.fetch_add(stale_served,
                                         std::memory_order_relaxed);
  }
  if (prior_served > 0) {
    prior_pairs_->Increment(prior_served);
    shard.counters.prior_pairs.fetch_add(prior_served,
                                         std::memory_order_relaxed);
  }
  return common::Status::Ok();
}

common::StatusOr<RankResponse> ServingEngine::RankAdmitted(
    EngineShard& shard, const Active& active, const RankRequest& request,
    Scratch* scratch, std::chrono::steady_clock::time_point start) const {
  Deadline deadline = request.deadline;
  if (deadline.infinite() && options_.default_deadline_ms > 0.0) {
    deadline = Deadline::AfterMs(options_.default_deadline_ms);
  }
  if (deadline.expired()) {
    return ShedRequest(shard, "deadline expired before admission",
                       ElapsedMs(start), /*deadline_miss=*/true);
  }

  CollectScorablePairs(*active.model, request.type, request.candidates,
                       &scratch->seen, &scratch->pairs);

  RankResponse response;
  response.epoch = active.epoch;
  const common::Status ladder = ScoreLadder(
      shard, active, scratch->pairs, deadline, scratch, &response.tier);
  if (!ladder.ok()) {
    // The client got no ranking: in SLO terms this counts like a shed
    // request (and a deadline miss when the budget ran out mid-flight).
    obs::SloOutcome outcome;
    outcome.latency_ms = ElapsedMs(start);
    outcome.shed = true;
    outcome.deadline_miss = deadline.expired();
    slo_.Record(outcome);
    return ladder;
  }
  response.sites = RankFromScores(scratch->pairs, scratch->scores, request.k);
  if (response.tier != ServeTier::kFresh) {
    shard.counters.degraded.fetch_add(1, std::memory_order_relaxed);
  }
  RecordOutcome(response.tier);

  const double latency = ElapsedMs(start);
  latency_ms_->Observe(latency);
  obs::SloOutcome outcome;
  outcome.latency_ms = latency;
  outcome.deadline_miss = deadline.expired();
  outcome.degraded = response.tier != ServeTier::kFresh;
  slo_.Record(outcome);
  return response;
}

common::StatusOr<RankResponse> ServingEngine::Rank(
    const RankRequest& request) const {
  const auto start = std::chrono::steady_clock::now();
  EngineShard& shard = ShardForThisThread();
  requests_->Increment();
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  shard.counters.requests.fetch_add(1, std::memory_order_relaxed);
  if (request.k < 0) {
    return common::InvalidArgumentError("Rank: k must be >= 0, got " +
                                        std::to_string(request.k));
  }
  if (health_relaxed_.load(std::memory_order_relaxed) ==
      static_cast<int>(ServeHealth::kLameDuck)) {
    return ShedRequest(shard, "engine is in LAME_DUCK", ElapsedMs(start),
                       /*deadline_miss=*/false);
  }
  AdmissionController::Ticket ticket(admission_);
  if (!ticket.admitted()) {
    return ShedRequest(shard, "admission queue past its high-water mark",
                       ElapsedMs(start), /*deadline_miss=*/false);
  }
  const std::shared_ptr<const Active> active = CurrentActive();
  Scratch scratch;
  return RankAdmitted(shard, *active, request, &scratch, start);
}

std::vector<common::StatusOr<RankResponse>> ServingEngine::RankSitesBatch(
    std::span<const RankRequest> requests) const {
  std::vector<common::StatusOr<RankResponse>> out;
  out.reserve(requests.size());
  if (requests.empty()) return out;

  EngineShard& shard = ShardForThisThread();
  batches_->Increment();
  shard.counters.batches.fetch_add(1, std::memory_order_relaxed);
  // One admission slot covers the whole batch: a closed-loop driver
  // thread is one unit of concurrent load regardless of how many requests
  // it packed together.
  AdmissionController::Ticket ticket(admission_);
  // One model pin and one pool scope amortized across the span; every
  // request still performs its own deadline/SLO/tier accounting so the
  // responses are bit-identical to the serial loop.
  const std::shared_ptr<const Active> active = CurrentActive();
  exec::PoolScope pool_scope(options_.pool != nullptr ? options_.pool
                                                      : &exec::CurrentPool());
  Scratch scratch;
  for (const RankRequest& request : requests) {
    const auto start = std::chrono::steady_clock::now();
    requests_->Increment();
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    shard.counters.requests.fetch_add(1, std::memory_order_relaxed);
    if (request.k < 0) {
      out.emplace_back(common::InvalidArgumentError(
          "Rank: k must be >= 0, got " + std::to_string(request.k)));
      continue;
    }
    if (health_relaxed_.load(std::memory_order_relaxed) ==
        static_cast<int>(ServeHealth::kLameDuck)) {
      out.emplace_back(ShedRequest(shard, "engine is in LAME_DUCK",
                                   ElapsedMs(start),
                                   /*deadline_miss=*/false));
      continue;
    }
    if (!ticket.admitted()) {
      out.emplace_back(
          ShedRequest(shard, "admission queue past its high-water mark",
                      ElapsedMs(start), /*deadline_miss=*/false));
      continue;
    }
    out.emplace_back(RankAdmitted(shard, *active, request, &scratch, start));
  }
  return out;
}

common::StatusOr<std::vector<RankedSite>> ServingEngine::RankSites(
    int type, const std::vector<int>& candidate_regions, int k) const {
  RankRequest request;
  request.type = type;
  request.candidates = candidate_regions;
  request.k = k;
  request.deadline = Deadline::Infinite();
  O2SR_ASSIGN_OR_RETURN(RankResponse response, Rank(request));
  return std::move(response.sites);
}

common::StatusOr<SwapReport> ServingEngine::SwapSnapshot(
    const std::string& snapshot_path,
    std::unique_ptr<core::SiteRecommender> staged,
    uint64_t expected_config_hash, const SwapOptions& swap_options) {
  if (staged == nullptr) {
    return common::InvalidArgumentError(
        "SwapSnapshot: staged model is null");
  }
  std::lock_guard<std::mutex> swap_lock(swap_mutex_);
  SwapReport report;
  report.epoch = CurrentActive()->epoch;

  const auto reject = [&](common::Status why) {
    swap_rejects_->Increment();
    auto quarantined = QuarantineSnapshot(snapshot_path, why.ToString());
    if (quarantined.ok()) {
      report.quarantine_path = *quarantined;
    } else {
      why = why.WithContext("quarantine also failed (" +
                            quarantined.status().ToString() + ")");
    }
    report.reject_reason = std::move(why);
    O2SR_LOG(WARNING) << "snapshot swap rejected, active model (epoch "
                      << report.epoch << ") keeps serving: "
                      << report.reject_reason.ToString();
    return report;
  };

  auto snapshot = LoadSnapshot(snapshot_path);
  if (!snapshot.ok()) return reject(snapshot.status());
  {
    exec::PoolScope pool_scope(options_.pool != nullptr
                                   ? options_.pool
                                   : &exec::CurrentPool());
    common::Status restored =
        RestoreModel(*snapshot, *staged, expected_config_hash);
    if (!restored.ok()) return reject(std::move(restored));
    common::Status finalized = staged->FinalizeServing();
    if (!finalized.ok()) return reject(std::move(finalized));

    // Canary pass: the staged model answers the golden queries directly
    // (never through the cache — its scores must not be visible before
    // promotion).
    for (const CanaryQuery& canary : swap_options.canaries) {
      ++report.canaries_run;
      const std::string label =
          "canary (type " + std::to_string(canary.type) + ")";
      const core::InteractionList pairs =
          ScorablePairs(*staged, canary.type, canary.candidates);
      auto scored = staged->ServingPredict(pairs);
      if (!scored.ok()) {
        return reject(scored.status().WithContext(label + " failed"));
      }
      for (double s : *scored) {
        if (!std::isfinite(s)) {
          return reject(common::DataLossError(
              label + " produced a non-finite score"));
        }
      }
      if (canary.expected.empty()) continue;
      const std::vector<RankedSite> ranked =
          RankFromScores(pairs, *scored, canary.k);
      if (ranked.size() != canary.expected.size()) {
        return reject(common::FailedPreconditionError(
            label + " returned " + std::to_string(ranked.size()) +
            " sites, expected " + std::to_string(canary.expected.size())));
      }
      for (size_t i = 0; i < ranked.size(); ++i) {
        if (ranked[i].region != canary.expected[i].region ||
            ranked[i].score != canary.expected[i].score) {
          return reject(common::FailedPreconditionError(
              label + " diverged at rank " + std::to_string(i + 1) +
              ": got region " + std::to_string(ranked[i].region) +
              ", expected region " +
              std::to_string(canary.expected[i].region)));
        }
      }
    }
  }

  // Promote: epoch-tagged invalidation (entries of the displaced epoch
  // become stale-only), in-flight queries finish on the model they pinned.
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    auto next = std::make_shared<Active>();
    next->owned = std::shared_ptr<core::SiteRecommender>(std::move(staged));
    next->model = next->owned.get();
    next->epoch = active_->epoch + 1;
    active_ = next;
    report.epoch = next->epoch;
  }
  swaps_->Increment();
  epoch_gauge_->Set(static_cast<double>(report.epoch));
  report.promoted = true;
  O2SR_LOG(INFO) << "snapshot '" << snapshot_path
                 << "' promoted after " << report.canaries_run
                 << " canaries; serving epoch " << report.epoch;
  return report;
}

}  // namespace o2sr::serve
