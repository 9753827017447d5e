#ifndef O2SR_SERVE_SCORE_CACHE_H_
#define O2SR_SERVE_SCORE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace o2sr::obs {
class Counter;
}  // namespace o2sr::obs

namespace o2sr::serve {

// Sharded LRU cache of (region, type) -> (score, epoch). Keys hash to a
// shard; each shard holds its own mutex, map and recency list, so
// concurrent lookups on different shards never contend. Capacity is split
// evenly across shards (each shard evicts its own least-recently-used
// entry when full).
//
// Every entry is tagged with the *model epoch* that computed it (the
// serving engine bumps the epoch on each snapshot swap). A fresh Lookup
// only returns entries of the caller's epoch — a swapped-in model can
// never be answered with the previous model's scores. Entries from older
// epochs are retained (until evicted) and reachable through LookupStale:
// the degraded-mode fallback ladder serves them, explicitly labeled, when
// fresh scoring fails (DESIGN.md §10).
//
// The fresh path is an *optimization only*: scores are deterministic
// functions of the loaded snapshot, so a fresh hit returns exactly what
// recomputation would — the engine's results are bit-identical with the
// cache on, off, cold or warm. Tests assert this (metrics_test.cc).
//
// Statistics live in per-shard cache-line-aligned relaxed-atomic blocks:
// a counter bump touches only the shard the key already hashed to, so the
// hot path never bounces a shared stats line between cores (the pre-§14
// design kept five instance-global atomics that every shard hammered).
// `stats()` aggregates the shard blocks on read; `ShardStats(i)` exposes
// one block so tests can assert the per-shard sum equals the aggregate
// (TSAN-covered by tests/score_cache_stress_test.cc). Counters are
// mirrored into the process-wide registry under `metrics_prefix` (default
// "serve.cache"):
//   <prefix>.hits        fresh lookups answered from the cache
//   <prefix>.misses      lookups that fell through
//   <prefix>.stale_hits  stale lookups answered by an older epoch
//   <prefix>.evictions   entries displaced by capacity pressure
class ScoreCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_hits = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
  };

  // `capacity` <= 0 disables the cache (every Lookup misses, Insert is a
  // no-op). `shards` is clamped to [1, capacity] so every shard holds at
  // least one entry. `metrics_prefix` names the registry mirror counters;
  // per-tenant engines pass distinct prefixes so one tenant's traffic
  // never pollutes another's gauges.
  ScoreCache(int64_t capacity, int shards,
             const std::string& metrics_prefix = "serve.cache");

  static uint64_t Key(int type, int region) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(type)) << 32) |
           static_cast<uint32_t>(region);
  }

  // On a fresh hit (entry tagged exactly `epoch`), writes the score,
  // refreshes recency and returns true. An entry from another epoch is a
  // miss (the entry stays, reachable via LookupStale).
  bool Lookup(uint64_t key, uint64_t epoch, double* score);

  // Degraded-mode lookup: returns the entry regardless of its epoch,
  // writing the tagging epoch to `entry_epoch` when non-null. Does not
  // refresh recency (stale entries must not outcompete fresh ones).
  bool LookupStale(uint64_t key, double* score,
                   uint64_t* entry_epoch = nullptr);

  // Inserts or refreshes the entry under `epoch`; evicts the shard's LRU
  // entry when full.
  void Insert(uint64_t key, uint64_t epoch, double score);

  // Drops every entry (all epochs). Used when stale scores must not
  // survive — e.g. quarantining a world whose scores are known bad.
  void Invalidate();

  // Aggregate across every shard block (plus the disabled-path block).
  Stats stats() const;
  // One shard's block. `shard` in [0, num_shards()); a disabled cache has
  // zero shards and keeps its counts in the block stats() adds last.
  Stats ShardStats(int shard) const;

  int64_t size() const;
  int64_t capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Entry {
    uint64_t key = 0;
    double score = 0.0;
    uint64_t epoch = 0;
  };
  // One cache line per block: a shard's counter bumps never invalidate a
  // neighbour shard's line.
  struct alignas(64) StatBlock {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> stale_hits{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> insertions{0};
  };
  struct Shard {
    std::mutex mutex;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
    StatBlock stats;
  };

  Shard& ShardOf(uint64_t key);
  static void AddBlock(const StatBlock& block, Stats* out);

  int64_t capacity_ = 0;
  int64_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Misses recorded when the cache is disabled (no shards exist to own
  // them) or a fault rule drops the lookup before shard selection.
  StatBlock disabled_stats_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* stale_hits_;
  obs::Counter* evictions_;
};

}  // namespace o2sr::serve

#endif  // O2SR_SERVE_SCORE_CACHE_H_
