#include "sim/stream.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/math_util.h"
#include "exec/thread_pool.h"
#include "nn/serialize.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace o2sr::sim {

namespace fs = std::filesystem;

namespace {

std::string ResolveDataDir(const std::string& requested) {
  if (!requested.empty()) return requested;
  return common::EnvString(common::Knob::kDataDir);
}

int ResolveMemBudgetMb(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(common::EnvInt(common::Knob::kMemBudgetMb));
}

std::string ManifestPath(const std::string& dir) {
  return (fs::path(dir) / kManifestFileName).string();
}

// One journal frame around `payload` (format in sim/stream.h).
std::string Frame(const std::string& payload) {
  std::string frame;
  nn::ByteWriter w(&frame);
  w.Str(payload);
  w.Scalar<uint64_t>(nn::Fnv1a(frame));
  return frame;
}

std::string LayoutFrame(const Manifest& m) {
  std::string payload;
  nn::ByteWriter w(&payload);
  w.Scalar<uint64_t>(m.config_hash);
  w.Scalar<uint32_t>(m.block_regions);
  w.Scalar<uint32_t>(m.num_blocks);
  w.Scalar<uint32_t>(m.epochs);
  w.Scalar<uint32_t>(m.num_regions);
  return Frame(payload);
}

std::string EntryFrame(const ManifestEntry& e) {
  std::string payload;
  nn::ByteWriter w(&payload);
  w.Str(e.filename);
  w.Scalar<uint32_t>(e.info.block);
  w.Scalar<uint32_t>(e.info.epoch);
  w.Scalar<uint32_t>(e.info.region_begin);
  w.Scalar<uint32_t>(e.info.region_end);
  w.Scalar<uint32_t>(e.info.num_regions);
  w.Scalar<uint64_t>(e.info.rows);
  w.Scalar<uint64_t>(e.info.payload_fnv);
  return Frame(payload);
}

std::string SerializeManifest(const Manifest& m) {
  std::string out(kManifestMagic, 8);
  nn::ByteWriter w(&out);
  w.Scalar<uint32_t>(kManifestVersion);
  out += LayoutFrame(m);
  for (const ManifestEntry& e : m.entries) out += EntryFrame(e);
  return out;
}

// Reads the frame at `r`'s position of `bytes` into `payload`; DATA_LOSS
// when the frame is torn or fails its checksum.
common::Status ReadFrame(const std::string& bytes, nn::ByteReader& r,
                         std::string* payload) {
  const size_t begin = bytes.size() - r.remaining();
  O2SR_RETURN_IF_ERROR(r.Str(payload));
  const size_t end = bytes.size() - r.remaining();
  uint64_t checksum = 0;
  O2SR_RETURN_IF_ERROR(r.Scalar(&checksum));
  if (checksum != nn::Fnv1a(bytes.substr(begin, end - begin))) {
    return common::DataLossError("checksum mismatch");
  }
  return common::Status::Ok();
}

common::Status ParseLayout(const std::string& payload, Manifest* m) {
  nn::ByteReader r(payload);
  O2SR_RETURN_IF_ERROR(r.Scalar(&m->config_hash));
  O2SR_RETURN_IF_ERROR(r.Scalar(&m->block_regions));
  O2SR_RETURN_IF_ERROR(r.Scalar(&m->num_blocks));
  O2SR_RETURN_IF_ERROR(r.Scalar(&m->epochs));
  O2SR_RETURN_IF_ERROR(r.Scalar(&m->num_regions));
  if (r.remaining() != 0) return common::DataLossError("trailing bytes");
  return common::Status::Ok();
}

common::Status ParseEntry(const std::string& payload, ManifestEntry* e) {
  nn::ByteReader r(payload);
  O2SR_RETURN_IF_ERROR(r.Str(&e->filename));
  O2SR_RETURN_IF_ERROR(r.Scalar(&e->info.block));
  O2SR_RETURN_IF_ERROR(r.Scalar(&e->info.epoch));
  O2SR_RETURN_IF_ERROR(r.Scalar(&e->info.region_begin));
  O2SR_RETURN_IF_ERROR(r.Scalar(&e->info.region_end));
  O2SR_RETURN_IF_ERROR(r.Scalar(&e->info.num_regions));
  O2SR_RETURN_IF_ERROR(r.Scalar(&e->info.rows));
  O2SR_RETURN_IF_ERROR(r.Scalar(&e->info.payload_fnv));
  if (r.remaining() != 0) return common::DataLossError("trailing bytes");
  return common::Status::Ok();
}

common::Status ParseManifest(const std::string& bytes,
                             const std::string& origin, Manifest* m) {
  const std::string where = "manifest '" + origin + "'";
  nn::ByteReader r(bytes);
  char magic[8] = {};
  uint32_t version = 0;
  if (!r.Scalar(&magic).ok() || !r.Scalar(&version).ok()) {
    return common::DataLossError(where + " is truncated below its header");
  }
  if (std::memcmp(magic, kManifestMagic, 8) != 0) {
    return common::DataLossError(where + " has a bad magic number");
  }
  if (version != kManifestVersion) {
    return common::FailedPreconditionError(
        where + " has format version " + std::to_string(version) +
        ", expected " + std::to_string(kManifestVersion));
  }
  std::string payload;
  O2SR_RETURN_IF_ERROR(ReadFrame(bytes, r, &payload)
                           .WithContext(where + " layout frame"));
  O2SR_RETURN_IF_ERROR(
      ParseLayout(payload, m).WithContext(where + " layout frame"));
  m->entries.clear();
  std::set<std::pair<uint32_t, uint32_t>> cells;
  while (r.remaining() != 0) {
    const std::string frame =
        where + " entry frame " + std::to_string(m->entries.size());
    O2SR_RETURN_IF_ERROR(ReadFrame(bytes, r, &payload).WithContext(frame));
    ManifestEntry e;
    O2SR_RETURN_IF_ERROR(ParseEntry(payload, &e).WithContext(frame));
    // Each publish journals its cell once; a second frame for a cell means
    // the file was appended to from a view that did not match it.
    if (!cells.insert({e.info.block, e.info.epoch}).second) {
      return common::DataLossError(frame + " journals its cell twice");
    }
    // Every journaled shard was written under the manifest's config; the
    // hash is manifest-level state, not serialized per entry.
    e.info.config_hash = m->config_hash;
    m->entries.push_back(std::move(e));
  }
  return common::Status::Ok();
}

// Quarantines `path` and logs; a failed move (e.g. the file vanished) only
// warns — the caller's recovery proceeds either way.
void QuarantineLoudly(const std::string& path, const std::string& reason) {
  O2SR_LOG(WARNING) << "quarantining '" << path << "': " << reason;
  const common::StatusOr<std::string> moved =
      nn::QuarantineFile(path, reason);
  if (!moved.ok()) {
    O2SR_LOG(WARNING) << "quarantine of '" << path
                      << "' failed: " << moved.status().ToString();
  }
}

int NumBlocks(int num_regions, int block_regions) {
  return (num_regions + block_regions - 1) / block_regions;
}

// Does `info` name a cell of the (block_regions, epochs) grid of this
// world, under the canonical file name? Used to adopt stray shards while
// rebuilding a lost manifest.
bool ShardFitsGrid(const ShardInfo& info, const std::string& filename,
                   int num_regions, int block_regions, int epochs) {
  const int blocks = NumBlocks(num_regions, block_regions);
  if (static_cast<int>(info.block) >= blocks) return false;
  if (static_cast<int>(info.epoch) >= epochs) return false;
  if (static_cast<int>(info.num_regions) != num_regions) return false;
  const uint32_t begin = info.block * block_regions;
  const uint32_t end = std::min<uint32_t>(begin + block_regions, num_regions);
  if (info.region_begin != begin || info.region_end != end) return false;
  return filename == ShardFileName(info.block, info.epoch);
}

// Scans `dir` for shard files; validated shards that fit the grid are
// adopted into a fresh manifest, everything else shard-shaped is
// quarantined. The recovery path of a lost/corrupt manifest.
Manifest RecoverManifestFromShards(const std::string& dir,
                                   uint64_t config_hash, int num_regions,
                                   int block_regions, int epochs,
                                   int* quarantined) {
  Manifest m;
  m.config_hash = config_hash;
  m.block_regions = block_regions;
  m.num_blocks = NumBlocks(num_regions, block_regions);
  m.epochs = epochs;
  m.num_regions = num_regions;

  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.size() > 5 && name.rfind("shard-", 0) == 0 &&
        name.compare(name.size() - 5, 5, ".o2sp") == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string path = (fs::path(dir) / name).string();
    const common::StatusOr<ShardInfo> info = ReadShard(path, nullptr);
    if (!info.ok()) {
      QuarantineLoudly(path, info.status().ToString());
      ++*quarantined;
      continue;
    }
    if (info->config_hash != config_hash) {
      QuarantineLoudly(path,
                       "valid shard was written under a different SimConfig "
                       "(fingerprint " + std::to_string(info->config_hash) +
                       ", this config " + std::to_string(config_hash) + ")");
      ++*quarantined;
      continue;
    }
    if (!ShardFitsGrid(*info, name, num_regions, block_regions, epochs)) {
      QuarantineLoudly(path,
                       "valid shard does not fit the dataset grid (foreign "
                       "blocking or epoch range)");
      ++*quarantined;
      continue;
    }
    m.entries.push_back(ManifestEntry{*info, name});
  }
  return m;
}

// Widest region range among validated same-config shards in `dir`; 0 when
// none. Lets a reader or a resuming generator re-infer the blocking after
// losing the manifest — a foreign shard must not dictate the tiling.
int InferBlockRegions(const std::string& dir, uint64_t config_hash) {
  int widest = 0;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const common::StatusOr<ShardInfo> info =
        ReadShard(ent.path().string(), nullptr);
    if (!info.ok() || info->config_hash != config_hash) continue;
    widest = std::max(widest,
                      static_cast<int>(info->region_end - info->region_begin));
  }
  return widest;
}

// Draws every order of `epoch` for the candidate block with DrawRegionDay,
// appending one SpillRow per order (regions ascending, slots ascending
// within a region). The regions run as a ParallelFor on
// exec::CurrentPool(), each into its own buffer; the buffers are appended
// in region order, so the rows are identical at any lane count.
void GenerateBlockRows(const World& world, const CandidateIndex& candidates,
                       int epoch, ShardColumns* out) {
  std::vector<std::vector<SpillRow>> region_rows(candidates.region_end -
                                                 candidates.region_begin);
  exec::CurrentPool().ParallelFor(
      static_cast<int64_t>(region_rows.size()), 1,
      [&](int64_t i) {
        std::vector<SpillRow>& rows = region_rows[i];
        DrawRegionDay(world, candidates, epoch,
                      candidates.region_begin + static_cast<int>(i),
                      [&rows](const Order& order) {
                        SpillRow row;
                        row.store_region =
                            static_cast<uint32_t>(order.store_region);
                        row.customer_region =
                            static_cast<uint32_t>(order.customer_region);
                        row.type = static_cast<uint16_t>(order.type);
                        row.slot = static_cast<uint8_t>(order.slot);
                        row.delivery_minutes = order.delivery_minutes();
                        row.distance_m = order.distance_m;
                        rows.push_back(row);
                      });
      },
      "sim.generate_rows");
  size_t rows = out->rows();
  for (const std::vector<SpillRow>& buffer : region_rows) {
    rows += buffer.size();
  }
  out->Reserve(rows);
  for (const std::vector<SpillRow>& buffer : region_rows) {
    for (const SpillRow& row : buffer) out->Append(row);
  }
}

}  // namespace

int AutoBlockRegions(const World& world, int mem_budget_mb) {
  const SimConfig& c = world.config;
  const int num_regions = world.num_regions();
  // Candidate-index footprint estimate: each store lands in the candidate
  // list of every region within delivery scope, so a region holds roughly
  // stores x (scope disc area / city area) entries.
  const double area = c.city_width_m * c.city_height_m;
  const double scope = c.base_scope_m * c.max_scope_factor;
  const double coverage = std::min(1.0, 3.14159265358979 * scope * scope /
                                            area);
  const double est_candidates =
      static_cast<double>(world.stores.size()) * coverage;
  // One TypedCandidate per candidate, plus generous slack for the per-type
  // list headers and the shard's row buffer.
  const double per_region_bytes =
      est_candidates * sizeof(TypedCandidate) + 65536.0;
  const double budget_bytes = static_cast<double>(mem_budget_mb) * 1048576.0;
  // Half the budget goes to the block (the rest covers the world tables);
  // cap at ceil(R/4) so every dataset gets at least 4 blocks of real
  // sharding.
  const int cap = (num_regions + 3) / 4;
  const int by_budget =
      static_cast<int>(budget_bytes * 0.5 / per_region_bytes);
  return Clamp(std::min(by_budget, cap), 1, num_regions);
}

common::Status WriteManifest(const std::string& path, const Manifest& m) {
  common::FaultInjector& faults = common::FaultInjector::Global();
  faults.InjectDelay("dataset.manifest");
  O2SR_RETURN_IF_ERROR(
      faults.InjectError("dataset.manifest").WithContext("writing " + path));
  std::string bytes = SerializeManifest(m);
  // Corruption lands on disk: a torn or flipped journal the next open must
  // catch by its frame checksums.
  faults.InjectCorruption("dataset.manifest", &bytes);
  return nn::WriteFileAtomic(path, bytes);
}

common::Status AppendManifestEntry(const std::string& path,
                                   const ManifestEntry& entry) {
  common::FaultInjector& faults = common::FaultInjector::Global();
  faults.InjectDelay("dataset.manifest");
  O2SR_RETURN_IF_ERROR(faults.InjectError("dataset.manifest")
                           .WithContext("appending to " + path));
  std::string frame = EntryFrame(entry);
  faults.InjectCorruption("dataset.manifest", &frame);
  return nn::AppendToFile(path, frame);
}

common::StatusOr<Manifest> ReadManifest(const std::string& path) {
  common::FaultInjector& faults = common::FaultInjector::Global();
  faults.InjectDelay("dataset.manifest");
  std::string bytes;
  O2SR_RETURN_IF_ERROR(nn::ReadFileToString(path, &bytes));
  faults.InjectCorruption("dataset.manifest", &bytes);
  Manifest m;
  O2SR_RETURN_IF_ERROR(ParseManifest(bytes, path, &m));
  return m;
}

common::StatusOr<StreamResult> StreamGenerate(const SimConfig& config,
                                              const StreamOptions& options) {
  O2SR_TRACE_SCOPE("sim.stream_generate");
  StreamResult result;
  result.data_dir = ResolveDataDir(options.data_dir);
  result.resolved_mem_budget_mb = ResolveMemBudgetMb(options.mem_budget_mb);
  result.epochs = config.num_days;

  std::error_code ec;
  fs::create_directories(result.data_dir, ec);
  if (ec) {
    return common::UnavailableError("cannot create data dir '" +
                                    result.data_dir + "': " + ec.message());
  }

  Rng rng(config.seed);
  const World world = BuildWorld(config, WorldOverrides(), rng);
  const int num_regions = world.num_regions();
  const uint64_t config_hash = SimConfigHash(config);

  // The blocking a FRESH run would choose; a surviving manifest overrides
  // it (layout is part of the journal, resume must not re-tile).
  int block_regions =
      options.block_regions > 0
          ? Clamp(options.block_regions, 1, num_regions)
          : AutoBlockRegions(world, result.resolved_mem_budget_mb);

  const std::string manifest_path = ManifestPath(result.data_dir);
  Manifest manifest;
  common::StatusOr<Manifest> loaded = ReadManifest(manifest_path);
  if (loaded.ok()) {
    if (loaded->config_hash != config_hash) {
      return common::FailedPreconditionError(
          "dataset dir '" + result.data_dir +
          "' was ingested for a different SimConfig (manifest fingerprint " +
          std::to_string(loaded->config_hash) + ", this config " +
          std::to_string(config_hash) + "); refusing to mix shards");
    }
    if (static_cast<int>(loaded->block_regions) != block_regions) {
      O2SR_LOG(WARNING) << "resuming with the manifest's blocking ("
                        << loaded->block_regions << " regions/block), not "
                        << block_regions;
    }
    manifest = std::move(*loaded);
    block_regions = static_cast<int>(manifest.block_regions);
  } else if (loaded.status().code() == common::StatusCode::kNotFound) {
    manifest.config_hash = config_hash;
    manifest.block_regions = block_regions;
    manifest.num_blocks = NumBlocks(num_regions, block_regions);
    manifest.epochs = config.num_days;
    manifest.num_regions = num_regions;
    O2SR_RETURN_IF_ERROR(WriteManifest(manifest_path, manifest));
  } else {
    // Torn or corrupt journal: quarantine it and rebuild from the shards
    // themselves — each shard is self-describing and self-checking. The
    // surviving shards, not this run's options/auto-sizing, decide the
    // blocking: a changed memory budget must not get every valid shard
    // quarantined as foreign and regenerated from scratch.
    QuarantineLoudly(manifest_path, loaded.status().ToString());
    ++result.quarantined;
    const int inferred = InferBlockRegions(result.data_dir, config_hash);
    if (inferred > 0 && inferred != block_regions) {
      O2SR_LOG(WARNING) << "recovering with the blocking inferred from "
                        << "surviving shards (" << inferred
                        << " regions/block), not " << block_regions;
    }
    if (inferred > 0) block_regions = inferred;
    manifest =
        RecoverManifestFromShards(result.data_dir, config_hash, num_regions,
                                  block_regions, config.num_days,
                                  &result.quarantined);
    O2SR_RETURN_IF_ERROR(WriteManifest(manifest_path, manifest));
  }

  result.block_regions = block_regions;
  result.num_blocks = NumBlocks(num_regions, block_regions);

  std::map<std::pair<uint32_t, uint32_t>, size_t> done;
  for (size_t i = 0; i < manifest.entries.size(); ++i) {
    const ShardInfo& info = manifest.entries[i].info;
    done[{info.block, info.epoch}] = i;
  }

  for (int block = 0; block < result.num_blocks && !result.stopped_early;
       ++block) {
    const int begin = block * block_regions;
    const int end = std::min(begin + block_regions, num_regions);
    // Skip fully journaled blocks without paying for their candidate
    // index — the common case when resuming near the end.
    bool all_done = true;
    for (int epoch = 0; epoch < config.num_days; ++epoch) {
      if (done.find({static_cast<uint32_t>(block),
                     static_cast<uint32_t>(epoch)}) == done.end()) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      result.shards_skipped += config.num_days;
      continue;
    }

    const CandidateIndex candidates = BuildCandidates(world, begin, end);
    ShardColumns columns;
    for (int epoch = 0; epoch < config.num_days; ++epoch) {
      if (done.count({static_cast<uint32_t>(block),
                      static_cast<uint32_t>(epoch)}) != 0) {
        ++result.shards_skipped;
        continue;
      }
      columns.Clear();
      GenerateBlockRows(world, candidates, epoch, &columns);

      ShardInfo identity;
      identity.block = block;
      identity.epoch = epoch;
      identity.region_begin = begin;
      identity.region_end = end;
      identity.num_regions = num_regions;
      identity.config_hash = config_hash;
      const std::string filename = ShardFileName(block, epoch);
      const std::string path =
          (fs::path(result.data_dir) / filename).string();
      O2SR_ASSIGN_OR_RETURN(const ShardInfo info,
                            WriteShard(path, columns, identity));

      // Journal the publish before moving on: kill-anywhere resume only
      // ever re-does the one shard whose journal frame did not land (and
      // regenerating it writes the same bytes).
      manifest.entries.push_back(ManifestEntry{info, filename});
      O2SR_RETURN_IF_ERROR(
          AppendManifestEntry(manifest_path, manifest.entries.back()));
      result.rows += info.rows;
      ++result.shards_written;
      if (options.max_shards_per_run > 0 &&
          result.shards_written >= options.max_shards_per_run) {
        result.stopped_early = true;
        break;
      }
    }
  }

  for (const ManifestEntry& e : manifest.entries) {
    result.total_rows += e.info.rows;
  }
  O2SR_LOG(DEBUG) << "stream ingest: " << result.shards_written
                  << " shards written, " << result.shards_skipped
                  << " resumed, " << result.total_rows << " total rows in '"
                  << result.data_dir << "'";
  return result;
}

common::StatusOr<DatasetReader> DatasetReader::Open(
    const SimConfig& config, const std::string& dir,
    const SpillReadOptions& options) {
  DatasetReader reader;
  reader.dir_ = ResolveDataDir(dir);
  reader.options_ = options;

  Rng rng(config.seed);
  reader.world_ = BuildWorld(config, WorldOverrides(), rng);
  const int num_regions = reader.world_.num_regions();
  const uint64_t config_hash = SimConfigHash(config);

  const std::string manifest_path = ManifestPath(reader.dir_);
  common::StatusOr<Manifest> loaded = ReadManifest(manifest_path);
  if (!loaded.ok()) {
    if (loaded.status().code() == common::StatusCode::kNotFound ||
        options.policy == SpillReadPolicy::kStrict) {
      return loaded.status().WithContext("opening dataset '" + reader.dir_ +
                                         "'");
    }
    // Corrupt journal, quarantine policy: re-infer the blocking from the
    // surviving shards, rebuild the manifest, and heal it on disk.
    QuarantineLoudly(manifest_path, loaded.status().ToString());
    const int block_regions = InferBlockRegions(reader.dir_, config_hash);
    if (block_regions <= 0) {
      return common::DataLossError(
          "dataset '" + reader.dir_ +
          "': manifest is corrupt and no readable shard survives to "
          "recover the layout from");
    }
    int quarantined = 0;
    reader.manifest_ = RecoverManifestFromShards(
        reader.dir_, config_hash, num_regions, block_regions,
        config.num_days, &quarantined);
    O2SR_RETURN_IF_ERROR(WriteManifest(manifest_path, reader.manifest_));
  } else {
    reader.manifest_ = std::move(*loaded);
  }
  if (reader.manifest_.config_hash != config_hash) {
    return common::FailedPreconditionError(
        "dataset '" + reader.dir_ +
        "' was ingested for a different SimConfig (manifest fingerprint " +
        std::to_string(reader.manifest_.config_hash) + ", this config " +
        std::to_string(config_hash) + ")");
  }
  if (static_cast<int>(reader.manifest_.num_regions) != num_regions) {
    return common::FailedPreconditionError(
        "dataset '" + reader.dir_ + "' covers " +
        std::to_string(reader.manifest_.num_regions) +
        " regions, this config builds " + std::to_string(num_regions));
  }
  return reader;
}

common::Status DatasetReader::Stream(const ShardSink& sink,
                                     SpillReadReport* report) {
  O2SR_TRACE_SCOPE("sim.stream_read");
  SpillReadReport local;
  SpillReadReport& rep = report != nullptr ? *report : local;
  rep = SpillReadReport();

  const int num_regions = manifest_.num_regions;
  const int block_regions = manifest_.block_regions;
  const int num_blocks = NumBlocks(num_regions, block_regions);
  const int epochs = manifest_.epochs;

  // Indices, not pointers: the regeneration path below push_backs into
  // manifest_.entries mid-loop, which may reallocate the vector and would
  // dangle any pointer held here. An index stays valid across growth; the
  // entry pointer is re-derived per cell.
  std::map<std::pair<uint32_t, uint32_t>, size_t> by_cell;
  for (size_t i = 0; i < manifest_.entries.size(); ++i) {
    const ManifestEntry& e = manifest_.entries[i];
    by_cell[{e.info.block, e.info.epoch}] = i;
  }

  // Lazily built per block, only when a shard in it needs regeneration.
  CandidateIndex candidates;
  bool have_candidates = false;
  int candidates_block = -1;

  // Epoch-major: within an epoch, blocks ascending visit regions 0..R-1 in
  // order, so the ROW order seen by the sink is (epoch, region, slot,
  // attempt) — independent of the blocking. Floating-point accumulation
  // downstream is therefore bit-identical across memory budgets.
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int block = 0; block < num_blocks; ++block) {
      const int begin = block * block_regions;
      const int end = std::min(begin + block_regions, num_regions);
      const auto it = by_cell.find(
          {static_cast<uint32_t>(block), static_cast<uint32_t>(epoch)});
      const ManifestEntry* entry =
          it == by_cell.end() ? nullptr : &manifest_.entries[it->second];
      const std::string filename =
          entry != nullptr ? entry->filename : ShardFileName(block, epoch);
      const std::string path = (fs::path(dir_) / filename).string();

      ShardColumns columns;
      bool have_rows = false;
      ShardInfo info;

      if (entry != nullptr) {
        common::StatusOr<ShardInfo> read = ReadShard(path, &columns);
        if (read.ok() &&
            (read->block != entry->info.block ||
             read->epoch != entry->info.epoch ||
             read->region_begin != entry->info.region_begin ||
             read->region_end != entry->info.region_end ||
             read->num_regions != entry->info.num_regions ||
             read->config_hash != entry->info.config_hash ||
             read->rows != entry->info.rows ||
             read->payload_fnv != entry->info.payload_fnv)) {
          read = common::DataLossError(
              "shard '" + path +
              "': intact file disagrees with its manifest record (swapped "
              "or stale shard)");
        }
        if (read.ok()) {
          // ParseShard bounded regions and slots against the shard's own
          // header; the store-type bound needs this world's config.
          const common::Status types =
              ValidateShardTypes(columns, world_.num_types(), path);
          if (!types.ok()) read = types;
        }
        if (read.ok()) {
          info = *read;
          have_rows = true;
          ++rep.shards_read;
        } else {
          if (options_.policy == SpillReadPolicy::kStrict) {
            return read.status().WithContext("reading dataset '" + dir_ +
                                             "'");
          }
          if (read.status().code() != common::StatusCode::kNotFound) {
            QuarantineLoudly(path, read.status().ToString());
          } else {
            O2SR_LOG(WARNING) << "shard '" << path
                              << "' is journaled but missing on disk";
          }
          ++rep.quarantined;
        }
      } else {
        if (options_.policy == SpillReadPolicy::kStrict) {
          return common::DataLossError(
              "dataset '" + dir_ + "': shard (block " +
              std::to_string(block) + ", epoch " + std::to_string(epoch) +
              ") was never journaled — ingestion is incomplete");
        }
        O2SR_LOG(WARNING) << "dataset '" << dir_ << "': cell (block "
                          << block << ", epoch " << epoch
                          << ") missing from the journal";
        ++rep.quarantined;
      }

      if (!have_rows) {
        if (!options_.regenerate) {
          ++rep.skipped;
          O2SR_LOG(WARNING)
              << "skipping lost shard (block " << block << ", epoch "
              << epoch << "); " << rep.skipped << "/"
              << options_.max_quarantined << " of the error budget used";
          if (rep.skipped > options_.max_quarantined) {
            return common::DataLossError(
                "dataset '" + dir_ + "': " + std::to_string(rep.skipped) +
                " shards lost, more than the max_quarantined budget of " +
                std::to_string(options_.max_quarantined));
          }
          continue;
        }
        // Regenerate the lost rows from the seeded simulator; the result
        // is bit-identical to the original publish.
        if (!have_candidates || candidates_block != block) {
          candidates = BuildCandidates(world_, begin, end);
          have_candidates = true;
          candidates_block = block;
        }
        columns.Clear();
        GenerateBlockRows(world_, candidates, epoch, &columns);
        ShardInfo identity;
        identity.block = block;
        identity.epoch = epoch;
        identity.region_begin = begin;
        identity.region_end = end;
        identity.num_regions = num_regions;
        identity.config_hash = manifest_.config_hash;
        info = identity;
        const std::string regen = SerializeShard(columns, &info);
        if (entry != nullptr && info.payload_fnv != entry->info.payload_fnv) {
          return common::DataLossError(
              "dataset '" + dir_ + "': regenerated shard (block " +
              std::to_string(block) + ", epoch " + std::to_string(epoch) +
              ") disagrees with its manifest record — the journal itself "
              "is untrustworthy");
        }
        // Heal the on-disk copy best-effort; the in-memory rows feed the
        // sink either way, so a read pass stays usable on a full disk.
        const common::Status healed = nn::WriteFileAtomic(path, regen);
        if (!healed.ok()) {
          O2SR_LOG(WARNING) << "could not re-publish regenerated shard '"
                            << path << "': " << healed.ToString();
        } else if (entry == nullptr) {
          manifest_.entries.push_back(ManifestEntry{info, filename});
          const common::Status journaled = AppendManifestEntry(
              ManifestPath(dir_), manifest_.entries.back());
          if (!journaled.ok()) {
            O2SR_LOG(WARNING) << "could not journal regenerated shard: "
                              << journaled.ToString();
          }
        }
        ++rep.regenerated;
        have_rows = true;
      }

      rep.rows += columns.rows();
      O2SR_RETURN_IF_ERROR(sink(columns, info));
    }
  }
  return common::Status::Ok();
}

}  // namespace o2sr::sim
