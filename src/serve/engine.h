#ifndef O2SR_SERVE_ENGINE_H_
#define O2SR_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/recommender.h"
#include "exec/thread_pool.h"
#include "obs/slo.h"
#include "serve/admission.h"
#include "serve/deadline.h"
#include "serve/score_cache.h"

namespace o2sr::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace o2sr::obs

namespace o2sr::serve {

// Which rung of the fallback ladder produced a response (DESIGN.md §10).
// Ordered by degradation: every response reports the *worst* rung any of
// its pairs needed.
enum class ServeTier {
  kFresh = 0,       // scored by the active model (directly or via a
                    // same-epoch cache hit); bit-identical to Predict
  kStaleCache = 1,  // answered from a cache entry of an older model epoch
  kPrior = 2,       // answered from the per-type popularity prior
};
const char* ServeTierName(ServeTier tier);

// Serving health state machine, exported as the "<prefix>.health_state"
// gauge (0 = SERVING, 1 = DEGRADED, 2 = LAME_DUCK).
//   SERVING    every recent response was fresh-tier
//   DEGRADED   a recent response needed the fallback ladder; clears after
//              `ServingOptions::health_recovery_streak` consecutive fresh
//              responses
//   LAME_DUCK  terminal drain state (EnterLameDuck): every new request is
//              shed, in-flight requests finish normally
enum class ServeHealth { kServing = 0, kDegraded = 1, kLameDuck = 2 };
const char* ServeHealthName(ServeHealth health);

// Per-type popularity prior over regions: the last rung of the fallback
// ladder. Scores are historical order volume normalized to [0, 1] per type
// — a crude ranking on a different scale than model scores, but one that
// keeps answering "where should this store type go" when both the model
// and the stale cache cannot.
struct PopularityPrior {
  // by_type[type][region] -> prior score in [0, 1].
  std::vector<std::unordered_map<int, double>> by_type;

  bool empty() const { return by_type.empty(); }
  // False when the (type, region) pair has no prior.
  bool Score(int type, int region, double* out) const;
};

// Prior from an interaction log: per (type, region) the maximum observed
// order volume, normalized by the per-type maximum.
PopularityPrior BuildPopularityPrior(
    int num_types, const core::InteractionList& interactions);

struct ServingOptions {
  // Score-cache capacity in entries, *per front-end shard* (each shard owns
  // a private ScoreCache so the hot path never crosses shards); < 0 means
  // "O2SR_SERVE_CACHE or the default 65536"; 0 disables caching.
  int64_t cache_capacity = -1;
  // Internal LRU shards of each per-front-end-shard cache.
  int cache_shards = 8;
  // Front-end shards. Requests hash to a shard by caller thread id, so a
  // given thread always lands on the same shard and single-threaded runs
  // stay bit-deterministic. <= 0 means "O2SR_SERVE_SHARDS, else
  // hardware_concurrency clamped to [1, 16]"; at most 64.
  int num_shards = -1;
  // Pool for scoring cache misses (the model's parallel kernels run under
  // it). Null resolves to exec::CurrentPool() at query time.
  exec::ThreadPool* pool = nullptr;
  // Admission high-water mark: requests past this many concurrent calls are
  // shed with RESOURCE_EXHAUSTED. < 0 means "O2SR_SERVE_MAX_INFLIGHT or
  // unbounded"; 0 is unbounded. A batch call holds ONE admission slot for
  // the whole batch.
  int64_t max_inflight = -1;
  // Default per-request latency budget applied when a RankRequest carries
  // an infinite deadline. < 0 means "O2SR_SERVE_DEADLINE_MS or none";
  // 0 is "no default deadline".
  double default_deadline_ms = -1.0;
  // Fallback prior (last ladder rung). Empty: the ladder ends at the stale
  // cache and a pair nothing can answer fails the request.
  PopularityPrior prior;
  // Consecutive fresh-tier responses required to leave DEGRADED.
  int health_recovery_streak = 32;
  // Serving SLO objective for the engine's SloMonitor. A non-positive
  // slo_ms, or a slo_target outside (0, 1), resolves to O2SR_SERVE_SLO_MS /
  // O2SR_SERVE_SLO_TARGET (defaults 50 ms latency, 0.99 good fraction).
  double slo_ms = -1.0;
  double slo_target = -1.0;
  // Registry prefix for every metric this engine owns ("serve" →
  // serve.requests, serve.cache.hits, serve.slo.burn_rate, ...). Tenant
  // engines get distinct prefixes ("serve.tenant.<name>") so one city's
  // gauges never alias another's.
  std::string metrics_prefix = "serve";
  // Invoked on every SERVING / DEGRADED / LAME_DUCK transition, outside
  // the health lock (calling back into the engine is safe). May be called
  // concurrently from racing requests; transitions are reported in the
  // order each racer observed them.
  std::function<void(ServeHealth from, ServeHealth to)> on_health_change;
};

// `options` with every env-deferred field (cache_capacity, num_shards,
// max_inflight, default_deadline_ms, slo_ms, slo_target) replaced by its
// O2SR_SERVE_* knob or default. The engine serves with the result.
ServingOptions ResolveServingOptions(ServingOptions options);

struct RankedSite {
  int region = -1;
  double score = 0.0;
};

// A ranking request with an explicit latency budget. The default deadline
// is infinite (the engine's default budget, if any, then applies).
struct RankRequest {
  int type = 0;
  std::vector<int> candidates;
  int k = 0;
  Deadline deadline;
};

struct RankResponse {
  std::vector<RankedSite> sites;
  // Worst ladder rung any pair of this response needed.
  ServeTier tier = ServeTier::kFresh;
  // Model epoch the fresh pairs were scored against (increments on every
  // promoted snapshot swap).
  uint64_t epoch = 0;
};

// One canary query of a snapshot swap: ranked against the *staged* model
// before promotion. The canary fails on any scoring error, any non-finite
// score, or — when `expected` is non-empty — any deviation from the
// expected ranking (region and bit-exact score).
struct CanaryQuery {
  int type = 0;
  std::vector<int> candidates;
  int k = 0;
  std::vector<RankedSite> expected;
};

struct SwapOptions {
  std::vector<CanaryQuery> canaries;
};

// Outcome of SwapSnapshot. `promoted` false means the active model kept
// serving untouched; `reject_reason` says why and `quarantine_path` is
// where the offending snapshot file was moved (empty when quarantining
// itself failed — the reason then carries a note).
struct SwapReport {
  bool promoted = false;
  uint64_t epoch = 0;  // epoch now serving
  size_t canaries_run = 0;
  common::Status reject_reason;
  std::string quarantine_path;
};

// Counter snapshot of one front-end shard (or, via TotalShardStats, their
// sum). The engine also keeps independent engine-global relaxed atomics
// for requests/shed/pairs_scored/degraded; tests assert the per-shard sum
// equals those globals under full concurrency.
struct EngineShardStats {
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t shed = 0;
  uint64_t pairs_scored = 0;
  uint64_t degraded_responses = 0;
  uint64_t stale_pairs = 0;
  uint64_t prior_pairs = 0;
  ScoreCache::Stats cache;
};

// Online ranking over a ready SiteRecommender (trained, or restored from a
// snapshot). Construction finalizes the model for serving (FinalizeServing
// precomputes its inference tables — O2-SiteRec materializes the per-period
// node embeddings so queries skip the whole multi-graph forward pass).
//
// Determinism contract (DESIGN.md §9): with fault injection off and no
// snapshot swap, Rank/RankSites is a pure function of the model's learned
// state and the query. The score cache, its capacity, the thread count and
// the query history never change a returned score or the ranking order;
// ties order by ascending region id.
//
// Resilience contract (DESIGN.md §10): per-request deadlines, bounded
// admission with load shedding, a fallback ladder (fresh score -> stale
// cached score -> per-type popularity prior) with the served tier recorded
// on every response, hot snapshot swap with canary validation + rollback +
// quarantine, and a SERVING / DEGRADED / LAME_DUCK health state machine.
//
// Concurrency model (DESIGN.md §14): the front end is sharded. A request
// hashes its caller's thread id to a shard; the shard owns a private
// ScoreCache and a cache-line-aligned counter block, so two threads on
// different shards share no mutable cache or stats state on the hot path.
// The remaining cross-shard state per request is one shared_ptr pin of the
// active model (amortized to once per batch) and the SLO window append.
//
// Thread-safety: Rank/RankSites/RankSitesBatch/Score are safe to call
// concurrently, and concurrently with one SwapSnapshot (swaps serialize
// among themselves). In-flight requests pin the model they started on; a
// promotion never yanks a model out from under a running query.
//
// Observability (prefix = ServingOptions::metrics_prefix, default "serve"):
//   <p>.requests            counter   ranked requests (batched included)
//   <p>.batches             counter   RankSitesBatch calls
//   <p>.pairs_scored        counter   cache misses scored through the model
//   <p>.rank_latency_ms     histogram per-request latency
//   <p>.shed                counter   requests shed (admission, deadline
//                                     pre-expiry, lame duck)
//   <p>.degraded_responses  counter   responses served below fresh tier
//   <p>.fallback.stale_pairs / <p>.fallback.prior_pairs
//                           counter   pairs answered by each ladder rung
//   <p>.swaps / <p>.swap_rejects
//                           counter   promoted / rejected snapshot swaps
//   <p>.health_state        gauge     0 SERVING / 1 DEGRADED / 2 LAME_DUCK
//   <p>.epoch               gauge     active model epoch
//   <p>.slo.burn_rate / <p>.slo.bad_fraction / <p>.slo.breached
//                           gauge     rolling-window SLO health
//                                     (obs::SloMonitor; see slo())
// plus the <p>.cache.* counters of the per-shard ScoreCaches (all shards
// of one engine mirror into the same registry counters).
class ServingEngine {
 public:
  // `model` is borrowed and must outlive the engine; it must already hold
  // final learned state. Fails when FinalizeServing does.
  static common::StatusOr<std::unique_ptr<ServingEngine>> Create(
      core::SiteRecommender* model, const ServingOptions& options = {});

  // Full-contract ranking: admission control, deadline budget, fallback
  // ladder, tier-tagged response. Top-k candidate regions for a store
  // type, best first, ordered by (score desc, region asc). Candidates the
  // model cannot score (CanScoreRegion false) are skipped; duplicates
  // count once. k larger than the scorable pool returns the whole pool
  // ranked.
  //
  // Errors: RESOURCE_EXHAUSTED when shed (admission high-water mark, lame
  // duck, or a deadline that expired before admission); INVALID_ARGUMENT
  // for contract violations (negative k, a store type the model rejects);
  // scorer failures only surface when every ladder rung below also fails.
  common::StatusOr<RankResponse> Rank(const RankRequest& request) const;

  // Batched ranking: one response per request, in request order, each
  // succeeding or failing independently with exactly the Rank contract.
  // Golden equivalence (tests/serve_batch_test.cc): RankSitesBatch({r1..rn})
  // returns bit-identical responses — ranks, scores, tiers, epochs, and
  // the cache state it leaves behind — to calling Rank(r1)..Rank(rn) in
  // order on the same thread. The batch amortizes what the serial loop
  // repeats per call: one active-model pin, one admission slot, one pool
  // scope, and reused scoring scratch (pair/score/top-K buffers) across
  // the whole span.
  std::vector<common::StatusOr<RankResponse>> RankSitesBatch(
      std::span<const RankRequest> requests) const;

  // Compatibility ranking without the resilience surface: infinite-budget
  // request, sites only. Bit-identical to the pre-resilience engine.
  common::StatusOr<std::vector<RankedSite>> RankSites(
      int type, const std::vector<int>& candidate_regions, int k) const;

  // Strict fresh-tier scores for explicit pairs, cache-accelerated;
  // bit-identical to the model's Predict. Every region must be scorable
  // (InvalidArgument otherwise, mirroring Predict's strictness). Never
  // degrades: scorer failures propagate.
  common::StatusOr<std::vector<double>> Score(
      const core::InteractionList& pairs) const;

  // Hot snapshot swap. Stages `staged` (a model with structure already
  // built via PrepareServing on the serving world), restores the snapshot
  // at `snapshot_path` into it, finalizes it, and runs the canary queries
  // against it. On pass: atomically promotes the staged model, bumps the
  // model epoch (same-epoch cache entries become stale, reachable only
  // through the degraded ladder), and keeps the displaced model alive
  // until its last in-flight query completes. On any failure (unreadable /
  // corrupt / mismatched snapshot, canary error, non-finite or unexpected
  // canary score): the active model keeps serving untouched and the
  // snapshot file is moved to `<dir>/.quarantine/<name>` next to a
  // `<name>.reason` record.
  //
  // Only INVALID_ARGUMENT (null staged model) is an error of the call
  // itself; a rejected swap returns ok with promoted = false.
  common::StatusOr<SwapReport> SwapSnapshot(
      const std::string& snapshot_path,
      std::unique_ptr<core::SiteRecommender> staged,
      uint64_t expected_config_hash, const SwapOptions& swap_options = {});

  // Terminal drain state: every subsequent Rank/RankSites call is shed
  // with RESOURCE_EXHAUSTED while in-flight calls finish normally.
  void EnterLameDuck();

  ServeHealth health() const;
  uint64_t epoch() const;
  int64_t inflight() const { return admission_.inflight(); }
  // Engine-global relaxed atomics, maintained independently of the
  // per-shard blocks (concurrency tests assert the two agree).
  uint64_t requests_count() const {
    return requests_total_.load(std::memory_order_relaxed);
  }
  uint64_t shed_count() const {
    return shed_total_.load(std::memory_order_relaxed);
  }
  uint64_t pairs_scored_count() const {
    return pairs_scored_total_.load(std::memory_order_relaxed);
  }
  uint64_t degraded_count() const {
    return degraded_total_.load(std::memory_order_relaxed);
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Snapshot of one shard's counter block + its cache stats.
  EngineShardStats ShardStats(int shard) const;
  // Sum over every shard.
  EngineShardStats TotalShardStats() const;
  // Aggregate cache stats across the per-shard caches.
  ScoreCache::Stats CacheStats() const;

  // The currently active model (may change across SwapSnapshot).
  const core::SiteRecommender& model() const;
  // Rolling-window SLO state over every Rank/RankSites call (shed requests
  // included). Snapshot() for the burn rate and latency quantiles.
  const obs::SloMonitor& slo() const { return slo_; }

 private:
  // The active model + its epoch. Queries copy the shared_ptr on entry, so
  // a promotion never destroys a model that still has in-flight readers.
  struct Active {
    core::SiteRecommender* model = nullptr;  // borrowed or owned.get()
    std::shared_ptr<core::SiteRecommender> owned;  // null for the initial
                                                   // borrowed model
    uint64_t epoch = 1;
  };

  // One front-end shard: private cache + cache-line-aligned counters. A
  // shard is only ever mutated by the threads that hash to it, so its
  // counters can be relaxed and its cache mutexes stay uncontended under
  // a thread-per-core driver.
  struct alignas(64) ShardCounters {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> pairs_scored{0};
    std::atomic<uint64_t> degraded{0};
    std::atomic<uint64_t> stale_pairs{0};
    std::atomic<uint64_t> prior_pairs{0};
  };
  struct EngineShard {
    std::unique_ptr<ScoreCache> cache;
    ShardCounters counters;
  };

  // Reused per-request scoring buffers; a batch threads one Scratch
  // through every request so pair/score/miss vectors allocate once.
  struct Scratch {
    std::unordered_set<int> seen;
    core::InteractionList pairs;
    std::vector<double> scores;
    core::InteractionList misses;
    std::vector<size_t> miss_slots;
  };

  ServingEngine(core::SiteRecommender* model, const ServingOptions& options);

  EngineShard& ShardForThisThread() const;

  std::shared_ptr<const Active> CurrentActive() const;

  // Fresh-tier scoring of `pairs` through the shard cache (strict; errors
  // propagate). Fault sites "score" (delay + error) fire around the model
  // call.
  common::StatusOr<std::vector<double>> ScoreFresh(
      EngineShard& shard, const Active& active,
      const core::InteractionList& pairs) const;

  // Ladder scoring: fresh where possible, stale cache then prior for pairs
  // the scorer could not answer in budget. Fails only when a pair exhausts
  // the ladder or the scorer reports a contract violation.
  common::Status ScoreLadder(EngineShard& shard, const Active& active,
                             const core::InteractionList& pairs,
                             const Deadline& deadline, Scratch* scratch,
                             ServeTier* tier) const;

  // The post-admission tail of Rank, shared by the serial and batched
  // paths: deadline resolution, pair collection, ladder scoring, top-K,
  // health + SLO accounting. `start` anchors the latency measurement.
  common::StatusOr<RankResponse> RankAdmitted(
      EngineShard& shard, const Active& active, const RankRequest& request,
      Scratch* scratch,
      std::chrono::steady_clock::time_point start) const;

  void RecordOutcome(ServeTier tier) const;
  void NotifyHealthChange(ServeHealth from, ServeHealth to) const;
  common::StatusOr<RankResponse> ShedRequest(EngineShard& shard,
                                             const char* reason,
                                             double latency_ms,
                                             bool deadline_miss) const;

  ServingOptions options_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  mutable AdmissionController admission_;
  mutable std::atomic<uint64_t> requests_total_{0};
  mutable std::atomic<uint64_t> shed_total_{0};
  mutable std::atomic<uint64_t> pairs_scored_total_{0};
  mutable std::atomic<uint64_t> degraded_total_{0};

  mutable std::mutex active_mutex_;
  std::shared_ptr<const Active> active_;
  mutable std::mutex swap_mutex_;  // one swap at a time

  mutable std::mutex health_mutex_;
  mutable ServeHealth health_ = ServeHealth::kServing;
  // Lock-free mirror of health_ so the hot path (lame-duck gate, the
  // fresh-response fast path of RecordOutcome) never touches health_mutex_.
  mutable std::atomic<int> health_relaxed_{0};
  mutable int fresh_streak_ = 0;

  mutable obs::SloMonitor slo_;

  obs::Counter* requests_;
  obs::Counter* batches_;
  obs::Counter* pairs_scored_;
  obs::Counter* shed_;
  obs::Counter* degraded_responses_;
  obs::Counter* stale_pairs_;
  obs::Counter* prior_pairs_;
  obs::Counter* swaps_;
  obs::Counter* swap_rejects_;
  obs::Gauge* health_gauge_;
  obs::Gauge* epoch_gauge_;
  obs::Histogram* latency_ms_;
};

}  // namespace o2sr::serve

#endif  // O2SR_SERVE_ENGINE_H_
