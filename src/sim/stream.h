#ifndef O2SR_SIM_STREAM_H_
#define O2SR_SIM_STREAM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/spill.h"
#include "sim/world.h"

namespace o2sr::sim {

// Out-of-core order generation (DESIGN.md §15).
//
// StreamGenerate simulates orders in bounded memory: regions are grouped
// into blocks sized from the memory budget, and the simulator emits one
// checksummed columnar shard (sim/spill.h) per (block, epoch=day). Each
// region's orders are drawn from an independent RNG stream seeded by
// (config.seed, epoch, region), so shard contents are bit-invariant to the
// block size, the memory budget, and how many times ingestion was killed
// and restarted.
//
// A manifest (magic "O2SRMNFS") journals every published shard: after a
// layout frame, each publish appends one length-prefixed, checksummed
// frame, so ingestion killed at ANY shard boundary resumes from the
// journal and converges to bit-identical output. A shard on disk but
// missing from the manifest is simply regenerated — the rewrite produces
// the same bytes.
//
// DatasetReader streams the shards back to aggregation / graph
// construction without ever materializing the raw order vector. Corrupt or
// torn shards (and a corrupt manifest) are detected by checksum, moved to
// `.quarantine/` with a reason record, and — policy permitting —
// regenerated from the seeded simulator or skipped under a bounded, loudly
// reported error budget.

inline constexpr char kManifestMagic[] = "O2SRMNFS";  // 8 chars + NUL
inline constexpr uint32_t kManifestVersion = 2;  // v2: append-only frames
inline constexpr char kManifestFileName[] = "manifest.o2sm";

// One journal record per published shard.
struct ManifestEntry {
  ShardInfo info;
  std::string filename;
};

// The ingestion journal: dataset layout plus every published shard.
struct Manifest {
  uint64_t config_hash = 0;
  uint32_t block_regions = 0;
  uint32_t num_blocks = 0;
  uint32_t epochs = 0;
  uint32_t num_regions = 0;
  std::vector<ManifestEntry> entries;
};

// Regions per block under `mem_budget_mb`, from an analytic estimate of
// the per-region candidate-index footprint. Capped at ceil(R/4) so even a
// huge budget exercises real sharding.
int AutoBlockRegions(const World& world, int mem_budget_mb);

// Manifest I/O, format version 2: a 12-byte header (magic, version), a
// layout frame, then one frame per entry. A frame is [u64 payload
// bytes][payload][u64 FNV-1a of the length prefix and the payload].
//
// WriteManifest publishes the whole journal atomically (temp + rename);
// it is for a dataset that has no live manifest (a fresh one, or a
// rebuild after the old one was quarantined). AppendManifestEntry adds one
// entry frame to the end of the live file and never renames or truncates
// it. ReadManifest rejects a bad header or any torn or mismatched frame as
// DATA_LOSS (FAILED_PRECONDITION for another format version); a file cut
// exactly after a frame reads as the journal up to that frame. All three
// carry the `dataset.manifest` fault site: delay/error before the write,
// bitflip/trunc applied to the bytes written (a torn journal lands on
// disk) or to the bytes read.
common::Status WriteManifest(const std::string& path, const Manifest& m);
common::Status AppendManifestEntry(const std::string& path,
                                   const ManifestEntry& entry);
common::StatusOr<Manifest> ReadManifest(const std::string& path);

// Knobs of a streaming-generation run. Zero values defer to the
// O2SR_DATA_DIR and O2SR_MEM_BUDGET_MB knobs or to auto-sizing.
struct StreamOptions {
  // Dataset directory; "" = $O2SR_DATA_DIR, falling back to "o2sr_data".
  std::string data_dir;
  // Regions per block; 0 = AutoBlockRegions from the memory budget. A
  // pre-existing manifest's blocking always wins (layout is part of the
  // journal).
  int block_regions = 0;
  // 0 = $O2SR_MEM_BUDGET_MB (default 2048, clamped to [64, 1048576]).
  int mem_budget_mb = 0;
  // Test hook: stop (successfully, stopped_early=true) after publishing
  // this many shards, i.e. at a journal boundary. 0 = run to completion.
  int max_shards_per_run = 0;
};

struct StreamResult {
  std::string data_dir;
  int block_regions = 0;
  int num_blocks = 0;
  int epochs = 0;
  uint64_t rows = 0;        // rows written by THIS run
  uint64_t total_rows = 0;  // rows across the whole manifest
  int shards_written = 0;
  int shards_skipped = 0;  // already journaled by a previous run
  int quarantined = 0;     // bad files found while recovering the manifest
  bool stopped_early = false;
  int resolved_mem_budget_mb = 0;
};

// Runs (or resumes) ingestion for `config`. Kill this at any point and
// call it again: it converges to the same manifest and bit-identical
// shards. FAILED_PRECONDITION if the directory holds a manifest for a
// different config.
common::StatusOr<StreamResult> StreamGenerate(const SimConfig& config,
                                              const StreamOptions& options);

// What DatasetReader does about a shard that is missing, torn, or fails a
// checksum.
enum class SpillReadPolicy {
  kStrict,      // fail fast: surface the DATA_LOSS, touch nothing
  kQuarantine,  // move the bad file to .quarantine/, then recover
};

struct SpillReadOptions {
  SpillReadPolicy policy = SpillReadPolicy::kQuarantine;
  // Under kQuarantine: regenerate the lost shard from the seeded simulator
  // (true), or skip it and charge the error budget (false).
  bool regenerate = true;
  // Skip budget when regenerate=false: reading fails loudly (DATA_LOSS)
  // once more than this many shards have been skipped.
  int max_quarantined = 0;
};

struct SpillReadReport {
  uint64_t rows = 0;
  int shards_read = 0;
  int quarantined = 0;
  int regenerated = 0;
  int skipped = 0;
};

// Streams a spilled dataset back shard-by-shard. Open() rebuilds the
// static world (cheap relative to orders) and validates the manifest;
// Stream() visits every (block, epoch) cell in a fixed order, verifying
// each shard against both its own checksums and its manifest record.
class DatasetReader {
 public:
  // `dir` = "" defers to $O2SR_DATA_DIR (fallback "o2sr_data").
  // FAILED_PRECONDITION if the manifest belongs to a different config;
  // under kQuarantine a corrupt manifest is quarantined and rebuilt by
  // scanning the shards themselves.
  static common::StatusOr<DatasetReader> Open(const SimConfig& config,
                                              const std::string& dir,
                                              const SpillReadOptions& options);

  using ShardSink =
      std::function<common::Status(const ShardColumns&, const ShardInfo&)>;

  // Calls `sink` once per (block, epoch) cell — epochs ascending, blocks
  // ascending within an epoch, so the row order the sink observes is the
  // canonical (epoch, region, slot, attempt) order regardless of how the
  // dataset was blocked. `report` (optional) receives read/recovery
  // counts.
  common::Status Stream(const ShardSink& sink, SpillReadReport* report);

  const World& world() const { return world_; }
  const Manifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }

  // Default-constructible only so StatusOr<DatasetReader> can hold an
  // error slot; use Open().
  DatasetReader() = default;

 private:
  std::string dir_;
  SpillReadOptions options_;
  World world_;
  Manifest manifest_;
};

}  // namespace o2sr::sim

#endif  // O2SR_SIM_STREAM_H_
