#ifndef O2SR_SIM_SPILL_H_
#define O2SR_SIM_SPILL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace o2sr::sim {

// The on-disk shard format of the out-of-core dataset (DESIGN.md §15).
//
// The streaming generator (sim/stream.h) emits one shard per
// (region-block, epoch); each shard is a self-describing columnar file:
//
//   header:  [8B magic "O2SRSHRD"][u32 version][u32 block][u32 epoch]
//            [u32 region_begin][u32 region_end][u32 num_regions]
//            [u64 config_hash][u64 rows][u64 payload_bytes]
//            [u64 FNV of the header bytes]
//   payload: store_region u32[rows] | customer_region u32[rows]
//            | type u16[rows] | slot u8[rows]
//            | delivery_minutes f64[rows] | distance_m f64[rows]
//   footer:  [u64 rows][u64 FNV of the payload][u64 FNV of those 16 bytes]
//
// Every region of the file is covered by one of the three checksums, so a
// single flipped bit or truncated tail anywhere is detected (DATA_LOSS)
// before a row is consumed. The header carries the SimConfigHash of the
// ingesting config so a shard with valid checksums but a foreign origin
// (e.g. a dataset dir generated under different store-type counts) is
// rejected at adoption time rather than fed to aggregation. ParseShard
// additionally bounds-checks every row (store/customer region, slot)
// against the header's own grid — checksums prove the bytes are the ones
// written, the bounds prove they are safe to index with. Both regions are
// bounded by the grid, not the shard's block: a row belongs to the block
// of the region it was drawn in, and the open-data preset displaces its
// customer into a neighboring region, possibly across the block edge.
// Shards publish atomically (temp + rename) and carry the `dataset.write`
// / `dataset.read` fault sites of the O2SR_FAULTS grammar.
//
// Rows hold exactly what region-level aggregation (features::OrderStats)
// consumes — delivery times are stored as f64 so streamed aggregates are
// bit-identical to in-RAM ones.

inline constexpr char kShardMagic[] = "O2SRSHRD";  // 8 chars + NUL
inline constexpr uint32_t kShardVersion = 2;  // v2: +config_hash in header
inline constexpr size_t kShardHeaderBytes = 8 + 6 * 4 + 4 * 8;
inline constexpr size_t kShardFooterBytes = 3 * 8;

// One order row of the spill format.
struct SpillRow {
  uint32_t store_region = 0;
  uint32_t customer_region = 0;
  uint16_t type = 0;
  uint8_t slot = 0;
  double delivery_minutes = 0.0;
  double distance_m = 0.0;
};

// Column-major shard contents.
struct ShardColumns {
  std::vector<uint32_t> store_region;
  std::vector<uint32_t> customer_region;
  std::vector<uint16_t> type;
  std::vector<uint8_t> slot;
  std::vector<double> delivery_minutes;
  std::vector<double> distance_m;

  size_t rows() const { return slot.size(); }
  void Append(const SpillRow& row);
  void Reserve(size_t n);
  void Clear();
};

// Shard identity + integrity record (also the manifest entry payload).
struct ShardInfo {
  uint32_t block = 0;
  uint32_t epoch = 0;
  uint32_t region_begin = 0;
  uint32_t region_end = 0;
  uint32_t num_regions = 0;
  // SimConfigHash of the config that generated the rows; a shard whose
  // hash disagrees with the reading config is foreign and never adopted.
  uint64_t config_hash = 0;
  uint64_t rows = 0;
  uint64_t payload_fnv = 0;
};

// "shard-b<block>-e<epoch>.o2sp", zero-padded so lexicographic order is
// (block, epoch) order.
std::string ShardFileName(int block, int epoch);

// Serializes header + payload + footer; fills info->rows/payload_fnv.
std::string SerializeShard(const ShardColumns& columns, ShardInfo* info);

// Parses + validates serialized shard bytes (any mismatch is DATA_LOSS
// with the failing check named). `columns` may be nullptr to validate
// only — row bounds are checked either way, straight off the payload
// bytes: store_region/customer_region < num_regions, slot < kSlotsPerDay.
common::Status ParseShard(const std::string& bytes, const std::string& origin,
                          ShardInfo* info, ShardColumns* columns);

// World-aware bound the header alone cannot prove: every row's type must
// index the reading config's store-type tables. DATA_LOSS on violation.
common::Status ValidateShardTypes(const ShardColumns& columns, int num_types,
                                  const std::string& origin);

// Full write path: serialize, apply `dataset.write` faults (delay, error,
// bitflip/trunc of the serialized bytes — corruption is *published* so the
// read path must catch it), then atomic temp + rename publish.
common::StatusOr<ShardInfo> WriteShard(const std::string& path,
                                       const ShardColumns& columns,
                                       const ShardInfo& identity);

// Full read path: read file, apply `dataset.read` faults, parse+validate.
common::StatusOr<ShardInfo> ReadShard(const std::string& path,
                                      ShardColumns* columns);

}  // namespace o2sr::sim

#endif  // O2SR_SIM_SPILL_H_
