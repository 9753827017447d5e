#include "serve/score_cache.h"

#include <algorithm>

#include "common/fault.h"
#include "obs/metrics.h"

namespace o2sr::serve {

ScoreCache::ScoreCache(int64_t capacity, int shards,
                       const std::string& metrics_prefix)
    : capacity_(std::max<int64_t>(capacity, 0)),
      hits_(obs::MetricsRegistry::Global().GetCounter(metrics_prefix +
                                                      ".hits")),
      misses_(obs::MetricsRegistry::Global().GetCounter(metrics_prefix +
                                                        ".misses")),
      stale_hits_(obs::MetricsRegistry::Global().GetCounter(metrics_prefix +
                                                            ".stale_hits")),
      evictions_(obs::MetricsRegistry::Global().GetCounter(metrics_prefix +
                                                           ".evictions")) {
  if (capacity_ == 0) return;
  const int64_t n = std::clamp<int64_t>(shards, 1, capacity_);
  per_shard_capacity_ = (capacity_ + n - 1) / n;
  shards_.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ScoreCache::Shard& ScoreCache::ShardOf(uint64_t key) {
  // Mix before taking the low bits: keys differing only in high (type)
  // bits must not land on one shard.
  uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return *shards_[h % shards_.size()];
}

bool ScoreCache::Lookup(uint64_t key, uint64_t epoch, double* score) {
  // Injection point: a `cache.lookup=error` rule turns this lookup into a
  // forced miss — simulating entries lost to eviction races or a cold
  // restart without touching real state.
  const bool dropped =
      !common::FaultInjector::Global().InjectError("cache.lookup").ok();
  if (capacity_ == 0 || dropped) {
    StatBlock& block =
        capacity_ == 0 ? disabled_stats_ : ShardOf(key).stats;
    block.misses.fetch_add(1, std::memory_order_relaxed);
    misses_->Increment();
    return false;
  }
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second->epoch != epoch) {
    shard.stats.misses.fetch_add(1, std::memory_order_relaxed);
    misses_->Increment();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *score = it->second->score;
  shard.stats.hits.fetch_add(1, std::memory_order_relaxed);
  hits_->Increment();
  return true;
}

bool ScoreCache::LookupStale(uint64_t key, double* score,
                             uint64_t* entry_epoch) {
  if (capacity_ == 0) return false;
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  *score = it->second->score;
  if (entry_epoch != nullptr) *entry_epoch = it->second->epoch;
  shard.stats.stale_hits.fetch_add(1, std::memory_order_relaxed);
  stale_hits_->Increment();
  return true;
}

void ScoreCache::Insert(uint64_t key, uint64_t epoch, double score) {
  if (capacity_ == 0) return;
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.stats.insertions.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->score = score;
    it->second->epoch = epoch;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (static_cast<int64_t>(shard.lru.size()) >= per_shard_capacity_) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    shard.stats.evictions.fetch_add(1, std::memory_order_relaxed);
    evictions_->Increment();
  }
  shard.lru.push_front(Entry{key, score, epoch});
  shard.map[key] = shard.lru.begin();
}

void ScoreCache::Invalidate() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->map.clear();
  }
}

void ScoreCache::AddBlock(const StatBlock& block, Stats* out) {
  out->hits += block.hits.load(std::memory_order_relaxed);
  out->misses += block.misses.load(std::memory_order_relaxed);
  out->stale_hits += block.stale_hits.load(std::memory_order_relaxed);
  out->evictions += block.evictions.load(std::memory_order_relaxed);
  out->insertions += block.insertions.load(std::memory_order_relaxed);
}

ScoreCache::Stats ScoreCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) AddBlock(shard->stats, &s);
  AddBlock(disabled_stats_, &s);
  return s;
}

ScoreCache::Stats ScoreCache::ShardStats(int shard) const {
  Stats s;
  if (shard >= 0 && shard < num_shards()) {
    AddBlock(shards_[static_cast<size_t>(shard)]->stats, &s);
  }
  return s;
}

int64_t ScoreCache::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += static_cast<int64_t>(shard->lru.size());
  }
  return total;
}

}  // namespace o2sr::serve
