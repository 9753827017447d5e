#include "sim/stream.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "features/order_stats.h"
#include "features/stream_aggregate.h"
#include "graphs/hetero_graph.h"
#include "graphs/mobility_graph.h"
#include "nn/serialize.h"
#include "sim/world.h"

namespace o2sr::sim {
namespace {

using common::StatusCode;

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Replaces the file with a new one rather than truncating it in place: on
// ext4, closing a file truncated and rewritten in place waits for a
// journal commit (tens of ms), which the exhaustive tests below would pay
// hundreds of times.
void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// Small enough that full ingestion plus the kill-at-every-boundary replay
// stays test-sized, but with several blocks and epochs so resume, blocking
// and recovery all have real structure to chew on.
SimConfig TinyConfig() {
  SimConfig config;
  config.city_width_m = 2000.0;
  config.city_height_m = 2000.0;  // 4x4 = 16 regions
  config.num_store_types = 5;
  config.num_stores = 80;
  config.num_couriers = 60;
  config.num_days = 3;
  config.peak_orders_per_region_slot = 2.0;
  config.seed = 77;
  return config;
}

StreamOptions Opts(const std::string& dir, int block_regions = 4) {
  StreamOptions options;
  options.data_dir = dir;
  options.block_regions = block_regions;
  options.mem_budget_mb = 256;
  return options;
}

uint64_t AggregateFingerprint(const SimConfig& config,
                              const std::string& dir,
                              SpillReadReport* report = nullptr) {
  auto reader = DatasetReader::Open(config, dir, SpillReadOptions());
  EXPECT_TRUE(reader.ok()) << reader.status();
  auto stats = features::AggregateSpill(*reader, report);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return features::FingerprintOrderStats(*stats);
}

// Reads `dir` back under kStrict, so any shard that fails to parse is an
// error rather than a regeneration.
uint64_t StrictFingerprint(const SimConfig& config, const std::string& dir,
                           SpillReadReport* report) {
  SpillReadOptions strict;
  strict.policy = SpillReadPolicy::kStrict;
  auto reader = DatasetReader::Open(config, dir, strict);
  EXPECT_TRUE(reader.ok()) << reader.status();
  if (!reader.ok()) return 0;
  auto stats = features::AggregateSpill(*reader, report);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? features::FingerprintOrderStats(*stats) : 0;
}

// A journal of the layout frame plus `entries` entry frames.
Manifest SampleManifest(int entries) {
  Manifest m;
  m.config_hash = 0xfeedfacecafebeefULL;
  m.block_regions = 4;
  m.num_blocks = 4;
  m.epochs = 3;
  m.num_regions = 16;
  for (int i = 0; i < entries; ++i) {
    ManifestEntry e;
    e.filename = ShardFileName(i, 1);
    e.info.block = i;
    e.info.epoch = 1;
    e.info.region_begin = 4 * i;
    e.info.region_end = 4 * i + 4;
    e.info.num_regions = 16;
    e.info.config_hash = m.config_hash;
    e.info.rows = 100 + i;
    e.info.payload_fnv = 0x0123456789abcdefULL + i;
    m.entries.push_back(e);
  }
  return m;
}

// The bytes WriteManifest publishes for `m`.
std::string ManifestBytes(const Manifest& m, const std::string& path) {
  EXPECT_TRUE(WriteManifest(path, m).ok());
  return ReadFileBytes(path);
}

// Flip ONE bit at EVERY byte offset of a 3-frame journal: the header, each
// frame's length prefix, payload and checksum. Every variant is rejected,
// as FAILED_PRECONDITION when the flip lands in the version field and
// DATA_LOSS everywhere else.
TEST(ManifestFormatTest, BitflipAtEveryByteOffsetIsDetected) {
  const std::string dir = FreshDir("manifest_bitflip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + kManifestFileName;
  const std::string bytes = ManifestBytes(SampleManifest(2), path);
  ASSERT_TRUE(ReadManifest(path).ok());
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x10);
    WriteFileBytes(path, mutated);
    const common::Status s = ReadManifest(path).status();
    const bool version_field = offset >= 8 && offset < 12;
    EXPECT_EQ(s.code(), version_field ? StatusCode::kFailedPrecondition
                                      : StatusCode::kDataLoss)
        << "bitflip at byte " << offset << ": " << s.ToString();
  }
}

// Every truncation is DATA_LOSS except a cut that ends exactly on a frame
// boundary after the layout frame: that is the journal as it stood before
// the later publishes, with exactly that many entries.
TEST(ManifestFormatTest, TruncationIsDetectedExceptOnFrameBoundaries) {
  const std::string dir = FreshDir("manifest_trunc");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + kManifestFileName;
  const Manifest full = SampleManifest(2);
  const std::string bytes = ManifestBytes(full, path);
  // Appending only ever extends the file: the journal after k publishes is
  // a prefix of the journal after k + 1.
  std::vector<size_t> boundaries;
  for (int k = 0; k < 2; ++k) {
    const std::string earlier = ManifestBytes(SampleManifest(k), path);
    ASSERT_EQ(bytes.compare(0, earlier.size(), earlier), 0) << k;
    boundaries.push_back(earlier.size());
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(path, bytes.substr(0, len));
    const auto read = ReadManifest(path);
    const auto boundary =
        std::find(boundaries.begin(), boundaries.end(), len);
    if (boundary == boundaries.end()) {
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
          << "truncation to " << len << " bytes: " << read.status();
      continue;
    }
    ASSERT_TRUE(read.ok()) << len << ": " << read.status();
    const size_t entries = boundary - boundaries.begin();
    ASSERT_EQ(read->entries.size(), entries) << len;
    EXPECT_EQ(read->config_hash, full.config_hash);
    for (size_t i = 0; i < entries; ++i) {
      EXPECT_EQ(read->entries[i].filename, full.entries[i].filename);
      EXPECT_EQ(read->entries[i].info.payload_fnv,
                full.entries[i].info.payload_fnv);
    }
  }
}

// A journal that names a cell twice was appended to from a view that did
// not match the file; it is corrupt, not "last entry wins".
TEST(ManifestFormatTest, DuplicateCellIsDataLoss) {
  const std::string dir = FreshDir("manifest_duplicate");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + kManifestFileName;
  const Manifest m = SampleManifest(2);
  ASSERT_TRUE(WriteManifest(path, m).ok());
  ASSERT_TRUE(AppendManifestEntry(path, m.entries[0]).ok());
  EXPECT_EQ(ReadManifest(path).status().code(), StatusCode::kDataLoss);
}

TEST(StreamGenerateTest, FullRunWritesEveryShardAndJournalsThem) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_full");
  const auto result = StreamGenerate(config, Opts(dir));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_blocks, 4);
  EXPECT_EQ(result->epochs, 3);
  EXPECT_EQ(result->shards_written, 12);
  EXPECT_EQ(result->shards_skipped, 0);
  EXPECT_GT(result->rows, 0u);
  EXPECT_EQ(result->rows, result->total_rows);

  const auto manifest = ReadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->entries.size(), 12u);
  EXPECT_EQ(manifest->config_hash, SimConfigHash(config));
  for (const ManifestEntry& e : manifest->entries) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + e.filename));
  }
}

TEST(StreamGenerateTest, RerunIsANoOp) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_noop");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  const auto again = StreamGenerate(config, Opts(dir));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->shards_written, 0);
  EXPECT_EQ(again->shards_skipped, 12);
}

TEST(StreamGenerateTest, DifferentConfigInSameDirIsRejected) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_mixed");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  SimConfig other = config;
  other.seed = 78;
  EXPECT_EQ(StreamGenerate(other, Opts(dir)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(DatasetReader::Open(other, dir, SpillReadOptions())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// The tentpole proof, in the style of pipeline_test: kill ingestion at
// EVERY shard boundary (max_shards_per_run=1 publishes exactly one shard
// per "process lifetime"), restart until done, and require the final
// shards and manifest to be byte-identical to an uninterrupted run — and
// the streamed aggregates to fingerprint identically.
TEST(StreamResumeTest, KillAtEveryShardBoundaryIsBitIdentical) {
  const SimConfig config = TinyConfig();
  const std::string ref_dir = FreshDir("stream_ref");
  const auto ref = StreamGenerate(config, Opts(ref_dir));
  ASSERT_TRUE(ref.ok()) << ref.status();

  const std::string dir = FreshDir("stream_killed");
  StreamOptions one = Opts(dir);
  one.max_shards_per_run = 1;
  int runs = 0;
  while (true) {
    const auto step = StreamGenerate(config, one);
    ASSERT_TRUE(step.ok()) << step.status();
    ++runs;
    ASSERT_LE(runs, 64) << "resume is not converging";
    if (!step->stopped_early && step->shards_written == 0) break;
  }
  EXPECT_EQ(runs, 13);  // 12 one-shard lifetimes + the final no-op pass

  for (int block = 0; block < ref->num_blocks; ++block) {
    for (int epoch = 0; epoch < config.num_days; ++epoch) {
      const std::string name = ShardFileName(block, epoch);
      EXPECT_EQ(ReadFileBytes(dir + "/" + name),
                ReadFileBytes(ref_dir + "/" + name))
          << name;
    }
  }
  EXPECT_EQ(ReadFileBytes(dir + "/" + kManifestFileName),
            ReadFileBytes(ref_dir + "/" + kManifestFileName));
  EXPECT_EQ(AggregateFingerprint(config, dir),
            AggregateFingerprint(config, ref_dir));
}

// A shard published without its journal entry (the crash window between
// WriteShard and WriteManifest) is regenerated to the same bytes.
TEST(StreamResumeTest, UnjournaledShardIsRewrittenIdentically) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_unjournaled");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  const std::string victim = dir + "/" + ShardFileName(1, 2);
  const std::string original = ReadFileBytes(victim);

  // Forge the crash window: shard on disk, manifest missing its entry.
  auto manifest = ReadManifest(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  auto& entries = manifest->entries;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const ManifestEntry& e) {
                                 return e.info.block == 1 &&
                                        e.info.epoch == 2;
                               }),
                entries.end());
  ASSERT_TRUE(WriteManifest(dir + "/" + kManifestFileName, *manifest).ok());

  const auto resumed = StreamGenerate(config, Opts(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->shards_written, 1);
  EXPECT_EQ(ReadFileBytes(victim), original);
}

// Every publish appends one frame to the live journal, within a run and
// across resumes: the manifest keeps its inode (a rename over it would
// unlink the inode this test holds open) and every byte it had before.
TEST(StreamResumeTest, PublishesAppendToTheLiveJournal) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_append_only");
  const std::string path = dir + "/" + kManifestFileName;
  StreamOptions one = Opts(dir);
  one.max_shards_per_run = 1;
  ASSERT_TRUE(StreamGenerate(config, one).ok());
  const int held = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(held, 0);
  const auto expect_same_file = [&](const std::string& when) {
    struct stat open_file, live;
    ASSERT_EQ(::fstat(held, &open_file), 0);
    ASSERT_EQ(::stat(path.c_str(), &live), 0);
    EXPECT_EQ(live.st_ino, open_file.st_ino) << when;
    EXPECT_EQ(open_file.st_nlink, 1u) << when;
  };

  std::string before = ReadFileBytes(path);
  size_t frame_bytes = 0;
  for (int run = 0; run < 4; ++run) {
    ASSERT_TRUE(StreamGenerate(config, one).ok());
    expect_same_file("after one-shard resume " + std::to_string(run));
    const std::string after = ReadFileBytes(path);
    ASSERT_GT(after.size(), before.size());
    EXPECT_EQ(after.compare(0, before.size(), before), 0) << run;
    if (frame_bytes == 0) frame_bytes = after.size() - before.size();
    EXPECT_EQ(after.size() - before.size(), frame_bytes) << run;
    before = after;
  }

  const auto rest = StreamGenerate(config, Opts(dir));
  ASSERT_TRUE(rest.ok()) << rest.status();
  EXPECT_EQ(rest->shards_written, 7);
  expect_same_file("after a run of 7 publishes");
  const std::string final_bytes = ReadFileBytes(path);
  EXPECT_EQ(final_bytes.compare(0, before.size(), before), 0);
  EXPECT_EQ(final_bytes.size(), before.size() + 7 * frame_bytes);
  ::close(held);
}

// A kill mid-append leaves a torn last frame. At any partial length the
// journal is corrupt: the resume quarantines it and rebuilds it from the
// shards, all of which are intact, so nothing is regenerated and the
// rebuilt journal is byte-identical to the clean one. A cut exactly at the
// frame's start is the journal before that publish: its shard is on disk
// but unjournaled, so exactly that one shard is regenerated.
TEST(StreamResumeTest, TornLastJournalFrameResumesWithoutRegenerating) {
  const SimConfig config = TinyConfig();
  const std::string ref_dir = FreshDir("stream_torn_ref");
  ASSERT_TRUE(StreamGenerate(config, Opts(ref_dir)).ok());
  const uint64_t clean = AggregateFingerprint(config, ref_dir);
  const std::string journal =
      ReadFileBytes(ref_dir + "/" + kManifestFileName);

  const std::string dir = FreshDir("stream_torn");
  std::filesystem::copy(ref_dir, dir);
  const std::string path = dir + "/" + kManifestFileName;
  auto manifest = ReadManifest(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  manifest->entries.pop_back();
  ASSERT_TRUE(WriteManifest(path, *manifest).ok());
  const size_t last_frame = ReadFileBytes(path).size();
  ASSERT_LT(last_frame, journal.size());
  ASSERT_EQ(journal.compare(0, last_frame, ReadFileBytes(path)), 0);

  const auto expect_clean_shards = [&](const std::string& when) {
    for (int block = 0; block < 4; ++block) {
      for (int epoch = 0; epoch < config.num_days; ++epoch) {
        const std::string name = ShardFileName(block, epoch);
        EXPECT_EQ(ReadFileBytes(dir + "/" + name),
                  ReadFileBytes(ref_dir + "/" + name))
            << name << " " << when;
      }
    }
    EXPECT_EQ(AggregateFingerprint(config, dir), clean) << when;
  };

  for (size_t len = last_frame + 1; len < journal.size(); ++len) {
    // A fresh quarantine each time, so the move below never replaces a file.
    std::filesystem::remove_all(dir + "/.quarantine");
    WriteFileBytes(path, journal.substr(0, len));
    const auto resumed = StreamGenerate(config, Opts(dir));
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(resumed->quarantined, 1) << len;  // the torn journal only
    EXPECT_EQ(resumed->shards_written, 0) << len;
    EXPECT_EQ(ReadFileBytes(path), journal) << len;
    EXPECT_EQ(ReadFileBytes(dir + "/.quarantine/" +
                            std::string(kManifestFileName)),
              journal.substr(0, len));
  }
  expect_clean_shards("after the torn-frame resumes");

  WriteFileBytes(path, journal.substr(0, last_frame));
  const auto resumed = StreamGenerate(config, Opts(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->quarantined, 0);
  EXPECT_EQ(resumed->shards_written, 1);
  EXPECT_EQ(ReadFileBytes(path), journal);
  expect_clean_shards("after the frame-boundary resume");
}

// Blocking is pure I/O batching: different block sizes (and hence memory
// budgets) produce different shard files but IDENTICAL aggregates.
TEST(StreamResumeTest, AggregatesAreInvariantToBlocking) {
  const SimConfig config = TinyConfig();
  const std::string a = FreshDir("stream_blocks_a");
  const std::string b = FreshDir("stream_blocks_b");
  ASSERT_TRUE(StreamGenerate(config, Opts(a, 4)).ok());
  ASSERT_TRUE(StreamGenerate(config, Opts(b, 7)).ok());
  EXPECT_EQ(AggregateFingerprint(config, a), AggregateFingerprint(config, b));
}

TEST(StreamReaderTest, CorruptShardIsQuarantinedAndRegenerated) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_corrupt_regen");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  const uint64_t clean = AggregateFingerprint(config, dir);

  const std::string victim = dir + "/" + ShardFileName(2, 1);
  const std::string original = ReadFileBytes(victim);
  std::string mutated = original;
  mutated[mutated.size() / 2] ^= 0x20;  // one bit, mid-payload
  WriteFileBytes(victim, mutated);

  SpillReadReport report;
  const uint64_t recovered = AggregateFingerprint(config, dir, &report);
  EXPECT_EQ(report.quarantined, 1);
  EXPECT_EQ(report.regenerated, 1);
  EXPECT_EQ(report.skipped, 0);
  EXPECT_EQ(recovered, clean);
  // The torn copy is preserved for forensics, the live file healed.
  EXPECT_TRUE(std::filesystem::exists(dir + "/.quarantine/" +
                                      ShardFileName(2, 1)));
  EXPECT_EQ(ReadFileBytes(victim), original);
}

// A shard with flawless checksums from a world with MORE store types: its
// type column would index out of range in this world's aggregation tables.
// The embedded config hash must keep it out — both when the journal is
// intact (manifest-record mismatch) and when the journal is lost and the
// manifest is rebuilt by scanning shards.
TEST(StreamReaderTest, ForeignConfigShardIsNeverConsumed) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_foreign_shard");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  const uint64_t clean = AggregateFingerprint(config, dir);

  SimConfig foreign = TinyConfig();
  foreign.num_store_types = 9;
  foreign.seed = 123;
  const std::string foreign_dir = FreshDir("stream_foreign_src");
  ASSERT_TRUE(StreamGenerate(foreign, Opts(foreign_dir)).ok());
  const std::string victim = ShardFileName(2, 1);
  const std::string planted = ReadFileBytes(foreign_dir + "/" + victim);
  WriteFileBytes(dir + "/" + victim, planted);

  SpillReadReport swapped;
  EXPECT_EQ(AggregateFingerprint(config, dir, &swapped), clean);
  EXPECT_EQ(swapped.quarantined, 1);
  EXPECT_EQ(swapped.regenerated, 1);

  // Journal lost: recovery scans the shards and must refuse to adopt the
  // foreign one even though every one of its checksums passes.
  WriteFileBytes(dir + "/" + victim, planted);
  std::string manifest = ReadFileBytes(dir + "/" + kManifestFileName);
  manifest[manifest.size() / 2] ^= 0x08;
  WriteFileBytes(dir + "/" + kManifestFileName, manifest);
  SpillReadReport recovery;
  EXPECT_EQ(AggregateFingerprint(config, dir, &recovery), clean);
  EXPECT_GE(recovery.regenerated, 1);
}

TEST(StreamReaderTest, StrictPolicyFailsFastOnCorruption) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_corrupt_strict");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  const std::string victim = dir + "/" + ShardFileName(0, 0);
  std::string bytes = ReadFileBytes(victim);
  bytes[bytes.size() - 3] ^= 0x01;  // footer checksum region
  WriteFileBytes(victim, bytes);

  SpillReadOptions strict;
  strict.policy = SpillReadPolicy::kStrict;
  auto reader = DatasetReader::Open(config, dir, strict);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const common::Status s = reader->Stream(
      [](const ShardColumns&, const ShardInfo&) {
        return common::Status::Ok();
      },
      nullptr);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  // Strict mode touches nothing: the corrupt file stays in place.
  EXPECT_TRUE(std::filesystem::exists(victim));
  EXPECT_FALSE(std::filesystem::exists(dir + "/.quarantine"));
}

TEST(StreamReaderTest, SkipPolicyHonorsAndEnforcesTheErrorBudget) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_skip_budget");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  for (const int epoch : {0, 1}) {
    const std::string victim = dir + "/" + ShardFileName(1, epoch);
    std::string bytes = ReadFileBytes(victim);
    bytes.resize(bytes.size() / 3);
    WriteFileBytes(victim, bytes);
  }

  SpillReadOptions skip;
  skip.regenerate = false;
  skip.max_quarantined = 2;
  auto reader = DatasetReader::Open(config, dir, skip);
  ASSERT_TRUE(reader.ok()) << reader.status();
  SpillReadReport report;
  ASSERT_TRUE(reader
                  ->Stream(
                      [](const ShardColumns&, const ShardInfo&) {
                        return common::Status::Ok();
                      },
                      &report)
                  .ok());
  EXPECT_EQ(report.skipped, 2);
  EXPECT_EQ(report.shards_read, 10);

  // One more loss than the budget allows: loud DATA_LOSS, not silence.
  SpillReadOptions tight = skip;
  tight.max_quarantined = 0;
  auto reader2 = DatasetReader::Open(config, dir, tight);
  ASSERT_TRUE(reader2.ok()) << reader2.status();
  EXPECT_EQ(reader2
                ->Stream(
                    [](const ShardColumns&, const ShardInfo&) {
                      return common::Status::Ok();
                    },
                    nullptr)
                .code(),
            StatusCode::kDataLoss);
}

TEST(StreamReaderTest, CorruptManifestIsQuarantinedAndRebuiltFromShards) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_manifest_recovery");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  const uint64_t clean = AggregateFingerprint(config, dir);

  const std::string manifest_path = dir + "/" + kManifestFileName;
  std::string bytes = ReadFileBytes(manifest_path);
  bytes[bytes.size() / 2] ^= 0x04;
  WriteFileBytes(manifest_path, bytes);

  EXPECT_EQ(AggregateFingerprint(config, dir), clean);
  EXPECT_TRUE(std::filesystem::exists(dir + "/.quarantine/" +
                                      std::string(kManifestFileName)));
  // The heal-write left a valid journal behind.
  EXPECT_TRUE(ReadManifest(manifest_path).ok());
}

// A version-1 manifest (one container rewritten on every publish) is intact
// but from an older writer: kStrict refuses it, and the default policy
// quarantines it and rebuilds the journal from the shards.
TEST(StreamReaderTest, VersionOneManifestIsRefusedStrictAndRebuiltByDefault) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_manifest_v1");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  const uint64_t clean = AggregateFingerprint(config, dir);
  const std::string path = dir + "/" + kManifestFileName;
  const std::string journal = ReadFileBytes(path);
  ASSERT_TRUE(
      nn::WriteContainerFile(path, kManifestMagic, 1, "v1 payload").ok());

  EXPECT_EQ(ReadManifest(path).status().code(),
            StatusCode::kFailedPrecondition);
  SpillReadOptions strict;
  strict.policy = SpillReadPolicy::kStrict;
  EXPECT_EQ(DatasetReader::Open(config, dir, strict).status().code(),
            StatusCode::kFailedPrecondition);

  SpillReadReport report;
  EXPECT_EQ(AggregateFingerprint(config, dir, &report), clean);
  EXPECT_EQ(report.regenerated, 0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/.quarantine/" +
                                      std::string(kManifestFileName)));
  EXPECT_EQ(ReadFileBytes(path), journal);
}

TEST(StreamReaderTest, GeneratorResumesThroughACorruptManifestToo) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_generate_recovery");
  StreamOptions partial = Opts(dir);
  partial.max_shards_per_run = 5;
  ASSERT_TRUE(StreamGenerate(config, partial).ok());

  const std::string manifest_path = dir + "/" + kManifestFileName;
  std::string bytes = ReadFileBytes(manifest_path);
  bytes.resize(bytes.size() - 7);
  WriteFileBytes(manifest_path, bytes);

  const auto resumed = StreamGenerate(config, Opts(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_GE(resumed->quarantined, 1);
  // Nothing already on disk was regenerated: the 5 surviving shards were
  // re-adopted from their own self-describing headers.
  EXPECT_EQ(resumed->shards_written, 7);

  const std::string ref_dir = FreshDir("stream_generate_recovery_ref");
  ASSERT_TRUE(StreamGenerate(config, Opts(ref_dir)).ok());
  EXPECT_EQ(AggregateFingerprint(config, dir),
            AggregateFingerprint(config, ref_dir));
}

// Losing the manifest AND changing the requested blocking (as a changed
// memory budget would) must not quarantine the survivors: recovery infers
// the blocking from the shards themselves and keeps them.
TEST(StreamGenerateTest, CorruptManifestRecoveryKeepsSurvivorsUnderNewBlocking) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_recovery_rebudget");
  StreamOptions partial = Opts(dir, 4);
  partial.max_shards_per_run = 5;
  ASSERT_TRUE(StreamGenerate(config, partial).ok());

  const std::string manifest_path = dir + "/" + kManifestFileName;
  std::string bytes = ReadFileBytes(manifest_path);
  bytes.resize(bytes.size() - 7);
  WriteFileBytes(manifest_path, bytes);

  const auto resumed = StreamGenerate(config, Opts(dir, 8));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->block_regions, 4);   // inferred, not the requested 8
  EXPECT_EQ(resumed->shards_written, 7);  // the 5 survivors were adopted
  EXPECT_FALSE(std::filesystem::exists(dir + "/.quarantine/" +
                                       ShardFileName(0, 0)));

  const std::string ref_dir = FreshDir("stream_recovery_rebudget_ref");
  ASSERT_TRUE(StreamGenerate(config, Opts(ref_dir, 4)).ok());
  EXPECT_EQ(AggregateFingerprint(config, dir),
            AggregateFingerprint(config, ref_dir));
}

// dataset.* fault recipes drive the whole loop end to end: torn writes land
// on disk, the reader detects, quarantines and regenerates, and the final
// aggregates still fingerprint identically to a fault-free world.
TEST(StreamFaultTest, ChaosRecipeConvergesToCleanAggregates) {
  const SimConfig config = TinyConfig();
  const std::string ref_dir = FreshDir("stream_chaos_ref");
  ASSERT_TRUE(StreamGenerate(config, Opts(ref_dir)).ok());
  const uint64_t clean = AggregateFingerprint(config, ref_dir);

  const std::string dir = FreshDir("stream_chaos");
  common::FaultInjector::ResetGlobalForTest(
      "seed=11,dataset.write=trunc:0.3");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());
  common::FaultInjector::ResetGlobalForTest("");

  SpillReadReport report;
  EXPECT_EQ(AggregateFingerprint(config, dir, &report), clean);
  EXPECT_GT(report.quarantined, 0);
  EXPECT_EQ(report.regenerated, report.quarantined);
}

// Streamed aggregates drive graph construction to the same result as
// collecting the rows in RAM first — the aggregate-consuming build path.
TEST(StreamGraphTest, GraphsFromStreamedAggregatesMatchCollectedRows) {
  const SimConfig config = TinyConfig();
  const std::string dir = FreshDir("stream_graphs");
  ASSERT_TRUE(StreamGenerate(config, Opts(dir)).ok());

  auto reader = DatasetReader::Open(config, dir, SpillReadOptions());
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto streamed = features::AggregateSpill(*reader, nullptr);
  ASSERT_TRUE(streamed.ok()) << streamed.status();

  // Reference: collect every row in RAM, then aggregate in one pass.
  features::OrderStats collected(reader->world().num_regions(),
                                 reader->world().num_types());
  auto reader2 = DatasetReader::Open(config, dir, SpillReadOptions());
  ASSERT_TRUE(reader2.ok());
  ASSERT_TRUE(reader2
                  ->Stream(
                      [&collected](const ShardColumns& cols,
                                   const ShardInfo&) {
                        for (size_t i = 0; i < cols.rows(); ++i) {
                          collected.Add(
                              static_cast<int>(PeriodOfSlot(cols.slot[i])),
                              cols.store_region[i], cols.customer_region[i],
                              cols.type[i], cols.delivery_minutes[i],
                              cols.distance_m[i]);
                        }
                        return common::Status::Ok();
                      },
                      nullptr)
                  .ok());
  collected.FinalizeSupplyDemand(reader->world().courier_alloc,
                                 config.num_days);
  EXPECT_EQ(features::FingerprintOrderStats(*streamed),
            features::FingerprintOrderStats(collected));

  // The orders-free WorldDataset plus streamed stats builds real graphs.
  const sim::Dataset world_data = WorldDataset(reader->world());
  const graphs::HeteroMultiGraph hetero(world_data, *streamed);
  const graphs::MobilityMultiGraph mobility(*streamed);
  EXPECT_GT(hetero.num_store_nodes(), 0);
  EXPECT_GT(mobility.TotalEdges(), 0u);
  EXPECT_EQ(hetero.num_types(), world_data.num_types());
}

// One order generator: GenerateDataset collects the same per-(day, region)
// draws StreamGenerate spills, in the reader's canonical order, so the
// in-memory aggregates fingerprint equal to the streamed ones for both
// presets under any blocking. The open-data preset displaces customers by
// ~0.75 cells, so some of its rows name a customer region outside their
// shard's block; kStrict must still read every shard as written.
TEST(StreamEquivalenceTest, GenerateDatasetMatchesTheSpilledDataset) {
  for (const SimulationPreset preset :
       {SimulationPreset::kSyntheticEleme, SimulationPreset::kOpenData}) {
    SimConfig config = TinyConfig();
    config.preset = preset;
    const Dataset data = GenerateDataset(config);
    const uint64_t in_memory =
        features::FingerprintOrderStats(features::OrderStats(data));
    for (const int block_regions : {4, 7}) {
      const std::string dir = FreshDir(
          ("stream_equiv_" + std::to_string(static_cast<int>(preset)) + "_" +
           std::to_string(block_regions))
              .c_str());
      ASSERT_TRUE(StreamGenerate(config, Opts(dir, block_regions)).ok());
      SpillReadReport report;
      EXPECT_EQ(StrictFingerprint(config, dir, &report), in_memory)
          << "preset " << static_cast<int>(preset) << ", " << block_regions
          << " regions/block";
      EXPECT_EQ(report.rows, data.orders.size());
      if (preset != SimulationPreset::kOpenData) continue;
      auto reader = DatasetReader::Open(config, dir, SpillReadOptions());
      ASSERT_TRUE(reader.ok()) << reader.status();
      int crossing = 0;
      ASSERT_TRUE(reader
                      ->Stream(
                          [&crossing](const ShardColumns& cols,
                                      const ShardInfo& info) {
                            for (const uint32_t u : cols.customer_region) {
                              crossing += u < info.region_begin ||
                                          u >= info.region_end;
                            }
                            return common::Status::Ok();
                          },
                          nullptr)
                      .ok());
      EXPECT_GT(crossing, 0) << block_regions << " regions/block";
    }
  }
}

// Generation is a ParallelFor over each block's regions. Every region
// draws from its own stream into its own buffer and the buffers are
// appended in region order, so the shards and the manifest are byte for
// byte those of the serial generator at any lane count. The payload FNVs
// are pinned to the serial generator's output.
TEST(StreamParallelTest, ShardsAreByteIdenticalAtAnyLaneCount) {
  const SimConfig config = TinyConfig();
  const std::vector<uint64_t> kPinnedPayloadFnvs = {
      0xe8c971aa4573e571ULL, 0x7e18691f14948634ULL, 0x6f4b7f93d89f0366ULL,
      0x7ea376e7fc33bfebULL, 0x564392dfb8e02ae0ULL, 0xaf3a0cdf54827e48ULL};
  std::vector<std::string> dirs;
  for (const int lanes : {1, 2, 8}) {
    exec::ThreadPool pool(lanes, "exec.test_stream");
    exec::PoolScope scope(&pool);
    dirs.push_back(FreshDir(("stream_lanes" + std::to_string(lanes)).c_str()));
    const auto result = StreamGenerate(config, Opts(dirs.back(), 8));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->shards_written, 6);

    const auto manifest = ReadManifest(dirs.back() + "/" + kManifestFileName);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    std::vector<uint64_t> fnvs;
    for (const ManifestEntry& e : manifest->entries) {
      fnvs.push_back(e.info.payload_fnv);
    }
    EXPECT_EQ(fnvs, kPinnedPayloadFnvs) << lanes << " lanes";
  }
  for (size_t d = 1; d < dirs.size(); ++d) {
    for (int block = 0; block < 2; ++block) {
      for (int epoch = 0; epoch < config.num_days; ++epoch) {
        const std::string name = ShardFileName(block, epoch);
        EXPECT_EQ(ReadFileBytes(dirs[d] + "/" + name),
                  ReadFileBytes(dirs[0] + "/" + name))
            << name;
      }
    }
    EXPECT_EQ(ReadFileBytes(dirs[d] + "/" + kManifestFileName),
              ReadFileBytes(dirs[0] + "/" + kManifestFileName));
  }
}

// The candidate index is counted, allocated and filled in parallel; its
// contents must not depend on the lane count.
TEST(StreamParallelTest, CandidatesAreIdenticalAtAnyLaneCount) {
  Rng rng(TinyConfig().seed);
  const World world = BuildWorld(TinyConfig(), WorldOverrides(), rng);
  const auto build = [&](int lanes, int begin, int end) {
    exec::ThreadPool pool(lanes, "exec.test_stream");
    exec::PoolScope scope(&pool);
    return BuildCandidates(world, begin, end);
  };
  for (const auto& [begin, end] : {std::pair{0, world.num_regions()},
                                   std::pair{3, 11}}) {
    const CandidateIndex serial = build(1, begin, end);
    const CandidateIndex parallel = build(4, begin, end);
    EXPECT_EQ(parallel.region_begin, serial.region_begin);
    EXPECT_EQ(parallel.region_end, serial.region_end);
    ASSERT_EQ(parallel.by_region_type.size(), serial.by_region_type.size());
    size_t candidates = 0;
    for (size_t i = 0; i < serial.by_region_type.size(); ++i) {
      const auto& want = serial.by_region_type[i];
      const auto& got = parallel.by_region_type[i];
      ASSERT_EQ(got.size(), want.size()) << "region " << begin + i;
      for (size_t t = 0; t < want.size(); ++t) {
        ASSERT_EQ(got[t].size(), want[t].size()) << begin + i << "/" << t;
        for (size_t c = 0; c < want[t].size(); ++c) {
          EXPECT_EQ(got[t][c].store_index, want[t][c].store_index);
          EXPECT_EQ(got[t][c].store_region, want[t][c].store_region);
          EXPECT_EQ(got[t][c].distance_m, want[t][c].distance_m);
          EXPECT_EQ(got[t][c].weight, want[t][c].weight);
        }
        candidates += want[t].size();
      }
    }
    EXPECT_GT(candidates, 0u);
  }
}

TEST(StreamSeedTest, ShardSeedsAreDistinctAcrossEpochAndRegion) {
  const uint64_t base = 42;
  std::vector<uint64_t> seen;
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (int region = 0; region < 64; ++region) {
      seen.push_back(ShardSeed(base, epoch, region));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace o2sr::sim
