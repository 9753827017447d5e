#include "sim/spill.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/status.h"
#include "nn/serialize.h"
#include "sim/period.h"

namespace o2sr::sim {
namespace {

using common::StatusCode;

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// Rows must satisfy the identity's bounds (customer_region inside
// [region_begin, region_end), store_region < num_regions, slot <
// kSlotsPerDay) — ParseShard now enforces them.
ShardColumns SampleColumns() {
  ShardColumns c;
  for (int i = 0; i < 5; ++i) {
    SpillRow row;
    row.store_region = 10 + i;
    row.customer_region = 8 + i;
    row.type = static_cast<uint16_t>(3 + i);
    row.slot = static_cast<uint8_t>(i);
    row.delivery_minutes = 25.5 + 0.25 * i;
    row.distance_m = 800.0 + 13.0 * i;
    c.Append(row);
  }
  return c;
}

ShardInfo SampleIdentity() {
  ShardInfo id;
  id.block = 2;
  id.epoch = 7;
  id.region_begin = 8;
  id.region_end = 16;
  id.num_regions = 64;
  id.config_hash = 0xfeedfacecafebeefULL;
  return id;
}

TEST(SpillFormatTest, RoundTripPreservesEveryColumn) {
  const ShardColumns columns = SampleColumns();
  ShardInfo info = SampleIdentity();
  const std::string bytes = SerializeShard(columns, &info);
  EXPECT_EQ(bytes.size(),
            kShardHeaderBytes + info.rows * 27 + kShardFooterBytes);

  ShardInfo parsed;
  ShardColumns out;
  ASSERT_TRUE(ParseShard(bytes, "test", &parsed, &out).ok());
  EXPECT_EQ(parsed.block, info.block);
  EXPECT_EQ(parsed.epoch, info.epoch);
  EXPECT_EQ(parsed.region_begin, info.region_begin);
  EXPECT_EQ(parsed.region_end, info.region_end);
  EXPECT_EQ(parsed.num_regions, info.num_regions);
  EXPECT_EQ(parsed.config_hash, info.config_hash);
  EXPECT_EQ(parsed.rows, columns.rows());
  EXPECT_EQ(parsed.payload_fnv, info.payload_fnv);
  EXPECT_EQ(out.store_region, columns.store_region);
  EXPECT_EQ(out.customer_region, columns.customer_region);
  EXPECT_EQ(out.type, columns.type);
  EXPECT_EQ(out.slot, columns.slot);
  EXPECT_EQ(out.delivery_minutes, columns.delivery_minutes);
  EXPECT_EQ(out.distance_m, columns.distance_m);
}

TEST(SpillFormatTest, ShardFileNameSortsByBlockThenEpoch) {
  EXPECT_EQ(ShardFileName(0, 0), "shard-b00000-e00000.o2sp");
  EXPECT_EQ(ShardFileName(12, 345), "shard-b00012-e00345.o2sp");
  EXPECT_LT(ShardFileName(1, 999), ShardFileName(2, 0));
}

// The headline integrity claim: flip ONE bit at EVERY byte offset of the
// file — header fields, each column block, the footer, and all three
// checksums themselves — and the parser must reject every single variant
// (and never crash or return rows).
TEST(SpillFormatTest, BitflipAtEveryByteOffsetIsDetected) {
  const ShardColumns columns = SampleColumns();
  ShardInfo info = SampleIdentity();
  const std::string bytes = SerializeShard(columns, &info);
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x10);
    ShardInfo parsed;
    ShardColumns out;
    const common::Status s = ParseShard(mutated, "mut", &parsed, &out);
    EXPECT_FALSE(s.ok()) << "bitflip at byte " << offset << " was accepted";
    EXPECT_TRUE(s.code() == StatusCode::kDataLoss ||
                s.code() == StatusCode::kFailedPrecondition)
        << "byte " << offset << ": " << s.ToString();
  }
}

// Same exhaustiveness for torn writes: every proper prefix must fail.
TEST(SpillFormatTest, TruncationAtEveryLengthIsDetected) {
  const ShardColumns columns = SampleColumns();
  ShardInfo info = SampleIdentity();
  const std::string bytes = SerializeShard(columns, &info);
  for (size_t len = 0; len < bytes.size(); ++len) {
    ShardInfo parsed;
    const common::Status s =
        ParseShard(bytes.substr(0, len), "trunc", &parsed, nullptr);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "truncation to " << len << " bytes: " << s.ToString();
  }
}

// A version bump with an otherwise-intact header is FAILED_PRECONDITION
// (incompatible writer), not DATA_LOSS.
TEST(SpillFormatTest, WrongVersionIsFailedPrecondition) {
  const ShardColumns columns = SampleColumns();
  ShardInfo info = SampleIdentity();
  std::string bytes = SerializeShard(columns, &info);
  uint32_t version = kShardVersion + 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  // Re-seal the header checksum so only the version disagrees.
  const uint64_t fnv =
      nn::Fnv1a(bytes.substr(0, kShardHeaderBytes - sizeof(uint64_t)));
  std::memcpy(bytes.data() + kShardHeaderBytes - sizeof(uint64_t), &fnv,
              sizeof(fnv));
  ShardInfo parsed;
  EXPECT_EQ(ParseShard(bytes, "ver", &parsed, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

// A shard whose checksums all pass but whose rows index outside the grid
// the header itself declares (the foreign-config / hand-forged case) must
// be DATA_LOSS, never handed to aggregation to index with.
TEST(SpillFormatTest, OutOfRangeRowsAreDataLossDespiteValidChecksums) {
  struct Case {
    const char* name;
    SpillRow row;
  };
  SpillRow bad_store;
  bad_store.store_region = 64;  // == num_regions
  bad_store.customer_region = 8;
  SpillRow bad_customer;
  bad_customer.store_region = 0;
  bad_customer.customer_region = 64;  // == num_regions
  SpillRow bad_slot;
  bad_slot.store_region = 0;
  bad_slot.customer_region = 8;
  bad_slot.slot = kSlotsPerDay;
  for (const Case& c : {Case{"store_region", bad_store},
                        Case{"customer_region", bad_customer},
                        Case{"slot", bad_slot}}) {
    ShardColumns columns = SampleColumns();
    columns.Append(c.row);
    ShardInfo info = SampleIdentity();
    const std::string bytes = SerializeShard(columns, &info);
    ShardInfo parsed;
    ShardColumns out;
    const common::Status s = ParseShard(bytes, c.name, &parsed, &out);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << c.name << ": "
                                               << s.ToString();
    // Validate-only parses (manifest recovery) must reject them too.
    EXPECT_EQ(ParseShard(bytes, c.name, &parsed, nullptr).code(),
              StatusCode::kDataLoss)
        << c.name;
  }
}

TEST(SpillFormatTest, ValidateShardTypesBoundsTheTypeColumn) {
  const ShardColumns columns = SampleColumns();  // types 3..7
  EXPECT_TRUE(ValidateShardTypes(columns, 8, "ok").ok());
  EXPECT_EQ(ValidateShardTypes(columns, 7, "narrow").code(),
            StatusCode::kDataLoss);
}

TEST(SpillFormatTest, WriteReadRoundTripOnDisk) {
  const std::string dir = FreshDir("spill_roundtrip");
  const std::string path = dir + "/" + ShardFileName(2, 7);
  const ShardColumns columns = SampleColumns();
  const auto written = WriteShard(path, columns, SampleIdentity());
  ASSERT_TRUE(written.ok()) << written.status();
  ShardColumns out;
  const auto read = ReadShard(path, &out);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->payload_fnv, written->payload_fnv);
  EXPECT_EQ(out.delivery_minutes, columns.delivery_minutes);
}

TEST(SpillFaultTest, InjectedWriteCorruptionIsCaughtOnRead) {
  const std::string dir = FreshDir("spill_torn_write");
  const std::string path = dir + "/" + ShardFileName(0, 0);
  // The write path publishes the corrupted bytes (a torn write); only the
  // read path can notice.
  common::FaultInjector::ResetGlobalForTest("dataset.write=trunc:1.0");
  ASSERT_TRUE(WriteShard(path, SampleColumns(), SampleIdentity()).ok());
  common::FaultInjector::ResetGlobalForTest("");
  ShardColumns out;
  EXPECT_EQ(ReadShard(path, &out).status().code(), StatusCode::kDataLoss);
}

TEST(SpillFaultTest, InjectedReadBitflipIsCaught) {
  const std::string dir = FreshDir("spill_read_flip");
  const std::string path = dir + "/" + ShardFileName(0, 0);
  ASSERT_TRUE(WriteShard(path, SampleColumns(), SampleIdentity()).ok());
  common::FaultInjector::ResetGlobalForTest("dataset.read=bitflip:1.0");
  ShardColumns out;
  EXPECT_EQ(ReadShard(path, &out).status().code(), StatusCode::kDataLoss);
  common::FaultInjector::ResetGlobalForTest("");
  // The on-disk file itself is intact: a healthy read succeeds.
  EXPECT_TRUE(ReadShard(path, &out).ok());
}

TEST(SpillFaultTest, InjectedWriteErrorSurfacesAsUnavailable) {
  const std::string dir = FreshDir("spill_write_err");
  const std::string path = dir + "/" + ShardFileName(0, 0);
  common::FaultInjector::ResetGlobalForTest("dataset.write=error:1.0");
  EXPECT_EQ(WriteShard(path, SampleColumns(), SampleIdentity())
                .status()
                .code(),
            StatusCode::kUnavailable);
  common::FaultInjector::ResetGlobalForTest("");
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(QuarantineFileTest, MovesFileAndWritesReason) {
  const std::string dir = FreshDir("quarantine");
  const std::string path = dir + "/bad.o2sp";
  WriteFileBytes(path, "garbage bytes");
  const auto moved = nn::QuarantineFile(path, "checksum mismatch");
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(*moved));
  EXPECT_EQ(*moved, dir + "/.quarantine/bad.o2sp");
  EXPECT_TRUE(std::filesystem::exists(*moved + ".reason"));
}

TEST(QuarantineFileTest, MissingFileIsNotFound) {
  const std::string dir = FreshDir("quarantine_missing");
  EXPECT_EQ(nn::QuarantineFile(dir + "/nope", "x").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace o2sr::sim
