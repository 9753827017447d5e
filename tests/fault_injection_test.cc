#include "common/fault.h"

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/checkpoint.h"
#include "nn/parameter.h"
#include "nn/serialize.h"

namespace o2sr::common {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Every test that touches the global injector must leave it healthy: the
// rest of the binary (and other suites in a shared process) assume a
// fault-free world unless they opt in.
class GlobalFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::ResetGlobalForTest(""); }
};

// --- Recipe parsing ---------------------------------------------------

TEST(FaultParseTest, EmptySpecIsHealthy) {
  const auto injector = FaultInjector::Parse("");
  ASSERT_TRUE(injector.ok());
  EXPECT_FALSE((*injector)->enabled());
  EXPECT_TRUE((*injector)->InjectError("anything").ok());
  EXPECT_EQ((*injector)->TotalFired(), 0u);
}

TEST(FaultParseTest, FullRecipeParses) {
  const auto injector = FaultInjector::Parse(
      "seed=7,snapshot.read=bitflip:0.01,score=delay:5ms,score=error:0.02");
  ASSERT_TRUE(injector.ok()) << injector.status();
  EXPECT_TRUE((*injector)->enabled());
}

TEST(FaultParseTest, TrailingAndDoubledCommasAreTolerated) {
  const auto injector = FaultInjector::Parse(",score=error:1.0,,");
  ASSERT_TRUE(injector.ok()) << injector.status();
  EXPECT_TRUE((*injector)->enabled());
}

TEST(FaultParseTest, MalformedRecipesAreInvalidArgument) {
  const char* bad[] = {
      "score",                 // no '='
      "=error:1.0",            // empty site
      "score=error",           // no ':arg'
      "score=explode:0.5",     // unknown kind
      "score=error:1.5",       // probability out of range
      "score=error:-0.1",      // negative probability
      "score=error:abc",       // non-numeric probability
      "score=delay:5",         // missing duration unit
      "score=delay:5h",        // unsupported unit
      "score=delay:-5ms",      // negative duration
      "seed=abc",              // non-integer seed
  };
  for (const char* spec : bad) {
    const auto injector = FaultInjector::Parse(spec);
    EXPECT_EQ(injector.status().code(), StatusCode::kInvalidArgument)
        << "spec '" << spec << "': " << injector.status();
  }
}

TEST(FaultParseTest, DurationUnits) {
  // All three units parse; a zero-length delay still *fires* (observable
  // via FiredCount) without sleeping.
  for (const char* spec :
       {"a=delay:250us", "a=delay:5ms", "a=delay:0.001s", "a=delay:0ms"}) {
    const auto injector = FaultInjector::Parse(spec);
    ASSERT_TRUE(injector.ok()) << spec << ": " << injector.status();
    (*injector)->InjectDelay("a");
    EXPECT_EQ((*injector)->FiredCount("a"), 1u) << spec;
  }
}

// --- Determinism ------------------------------------------------------

std::vector<bool> ErrorPattern(FaultInjector& injector, const std::string& site,
                               int n) {
  std::vector<bool> fired(n);
  for (int i = 0; i < n; ++i) fired[i] = !injector.InjectError(site).ok();
  return fired;
}

TEST(FaultDeterminismTest, SameRecipeReplaysTheSameFaultSequence) {
  const std::string spec = "seed=11,score=error:0.3";
  auto a = FaultInjector::Parse(spec).value();
  auto b = FaultInjector::Parse(spec).value();
  const auto pattern_a = ErrorPattern(*a, "score", 500);
  const auto pattern_b = ErrorPattern(*b, "score", 500);
  EXPECT_EQ(pattern_a, pattern_b);
  EXPECT_EQ(a->FiredCount("score"), b->FiredCount("score"));
  EXPECT_GT(a->FiredCount("score"), 0u);
}

TEST(FaultDeterminismTest, SeedChangesTheFaultSequence) {
  auto a = FaultInjector::Parse("seed=1,score=error:0.5").value();
  auto b = FaultInjector::Parse("seed=2,score=error:0.5").value();
  EXPECT_NE(ErrorPattern(*a, "score", 500), ErrorPattern(*b, "score", 500));
}

TEST(FaultDeterminismTest, ProbabilityBoundsAndRates) {
  auto always = FaultInjector::Parse("a=error:1.0").value();
  auto never = FaultInjector::Parse("a=error:0.0").value();
  auto half = FaultInjector::Parse("a=error:0.5").value();
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(always->InjectError("a").ok());
    EXPECT_TRUE(never->InjectError("a").ok());
    (void)half->InjectError("a");
  }
  EXPECT_EQ(always->FiredCount("a"), 200u);
  EXPECT_EQ(never->FiredCount("a"), 0u);
  // 200 Bernoulli(0.5) draws: [60, 140] is > 8 sigma, deterministic anyway.
  EXPECT_GT(half->FiredCount("a"), 60u);
  EXPECT_LT(half->FiredCount("a"), 140u);
}

TEST(FaultDeterminismTest, InjectedErrorIsUnavailableAndNamesTheSite) {
  auto injector = FaultInjector::Parse("score=error:1.0").value();
  const Status status = injector->InjectError("score");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("score"), std::string::npos);
}

TEST(FaultDeterminismTest, SitesAreIsolated) {
  auto injector = FaultInjector::Parse("score=error:1.0").value();
  EXPECT_TRUE(injector->InjectError("snapshot.read").ok());
  EXPECT_FALSE(injector->InjectError("score").ok());
  EXPECT_EQ(injector->FiredCount("snapshot.read"), 0u);
  EXPECT_EQ(injector->FiredCount("score"), 1u);
  EXPECT_EQ(injector->TotalFired(), 1u);
}

// --- Corruption -------------------------------------------------------

TEST(FaultCorruptionTest, BitflipFlipsExactlyOneBit) {
  auto injector = FaultInjector::Parse("buf=bitflip:1.0").value();
  const std::string original(64, '\x00');
  std::string bytes = original;
  injector->InjectCorruption("buf", &bytes);
  ASSERT_EQ(bytes.size(), original.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(bytes[i] ^ original[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
}

TEST(FaultCorruptionTest, TruncateShortensTheBuffer) {
  auto injector = FaultInjector::Parse("buf=trunc:1.0").value();
  std::string bytes(64, 'x');
  injector->InjectCorruption("buf", &bytes);
  EXPECT_LT(bytes.size(), 64u);
}

TEST(FaultCorruptionTest, CorruptionIsDeterministic) {
  auto a = FaultInjector::Parse("seed=3,buf=bitflip:1.0,buf=trunc:1.0").value();
  auto b = FaultInjector::Parse("seed=3,buf=bitflip:1.0,buf=trunc:1.0").value();
  std::string bytes_a(128, 'q'), bytes_b(128, 'q');
  a->InjectCorruption("buf", &bytes_a);
  b->InjectCorruption("buf", &bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(FaultCorruptionTest, EmptyBufferIsLeftAlone) {
  auto injector = FaultInjector::Parse("buf=bitflip:1.0").value();
  std::string bytes;
  injector->InjectCorruption("buf", &bytes);
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(injector->FiredCount("buf"), 0u);
}

// --- Injection sites in nn/serialize ----------------------------------

TEST_F(GlobalFaultTest, SerializeWriteErrorFailsThePublish) {
  FaultInjector::ResetGlobalForTest("serialize.write=error:1.0");
  const std::string path = TempPath("fault_write.bin");
  const Status status = nn::WriteFileAtomic(path, "payload");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "a failed publish must not leave a file behind";
  if (f != nullptr) std::fclose(f);
}

TEST_F(GlobalFaultTest, SerializeReadCorruptionNeverEscapesValidation) {
  // Write a valid container healthy, then read it under guaranteed
  // corruption: the envelope checks must catch every flip/cut as a clean
  // Status (checksum, size or version check — never a crash or silent
  // success).
  const std::string path = TempPath("fault_read.bin");
  ASSERT_TRUE(
      nn::WriteContainerFile(path, "O2SRTEST", 1, std::string(256, 'd')).ok());
  for (const char* spec :
       {"seed=1,serialize.read=bitflip:1.0", "seed=2,serialize.read=bitflip:1.0",
        "seed=1,serialize.read=trunc:1.0", "seed=2,serialize.read=trunc:1.0"}) {
    FaultInjector::ResetGlobalForTest(spec);
    const auto payload = nn::ReadContainerFile(path, "O2SRTEST", 1);
    EXPECT_FALSE(payload.ok()) << spec;
  }
  // And healthy again: the file itself was never touched.
  FaultInjector::ResetGlobalForTest("");
  const auto payload = nn::ReadContainerFile(path, "O2SRTEST", 1);
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(payload->size(), 256u);
}

// --- Real write failures in nn/serialize -------------------------------

// Caps this process's file size at `bytes` with SIGXFSZ ignored, so a
// write past the cap fails with EFBIG instead of killing the process. The
// destructor restores the limit and the signal disposition.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit_), 0);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved_limit_;
    capped.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  ~FileSizeLimit() {
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_limit_), 0);
    std::signal(SIGXFSZ, saved_handler_);
  }

 private:
  rlimit saved_limit_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

// A 3000-byte artifact fits stdio's buffer whole, so a write past the
// file-size cap fails only at the final flush in fclose. The publish must
// fail and leave the previous artifact's bytes in place.
TEST(SerializeWriteTest, FailedFinalFlushKeepsTheOldArtifact) {
  const std::string path = TempPath("flush_fail.bin");
  const std::string good(3000, 'g');
  ASSERT_TRUE(nn::WriteFileAtomic(path, good).ok());
  Status replaced;
  {
    // Checked after the limit is lifted, so a failure message is never
    // itself cut off by the cap.
    FileSizeLimit limit(1000);
    replaced = nn::WriteFileAtomic(path, std::string(3000, 'n'));
  }
  EXPECT_EQ(replaced.code(), StatusCode::kUnavailable) << replaced;
  std::string bytes;
  ASSERT_TRUE(nn::ReadFileToString(path, &bytes).ok());
  EXPECT_EQ(bytes, good);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "the short temp file must be removed";
  if (tmp != nullptr) std::fclose(tmp);
}

// An append past the cap fails the same way and leaves the file's bytes
// alone; an append to a missing file is NOT_FOUND and creates nothing.
TEST(SerializeWriteTest, FailedAppendIsReported) {
  const std::string path = TempPath("append_fail.bin");
  const std::string good(3000, 'g');
  ASSERT_TRUE(nn::WriteFileAtomic(path, good).ok());
  Status appended;
  {
    FileSizeLimit limit(1000);
    appended = nn::AppendToFile(path, std::string(64, 'a'));
  }
  EXPECT_EQ(appended.code(), StatusCode::kUnavailable) << appended;
  std::string bytes;
  ASSERT_TRUE(nn::ReadFileToString(path, &bytes).ok());
  EXPECT_EQ(bytes, good);

  const std::string missing = TempPath("append_missing.bin");
  std::remove(missing.c_str());
  EXPECT_EQ(nn::AppendToFile(missing, "frame").code(), StatusCode::kNotFound);
  std::FILE* f = std::fopen(missing.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "an append must not create the file";
  if (f != nullptr) std::fclose(f);
}

// --- Injection sites in nn/checkpoint ----------------------------------

void FillTinyStore(nn::ParameterStore* store) {
  store->CreateZeros("fault.w", 2, 3);
  store->params()[0]->value.Fill(0.5f);
}

// Checkpoints carry Adam moments shaped like the store.
nn::AdamState TinyAdam() {
  nn::AdamState adam;
  adam.m.push_back(nn::Tensor::Zeros(2, 3));
  adam.v.push_back(nn::Tensor::Zeros(2, 3));
  return adam;
}

TEST_F(GlobalFaultTest, CheckpointWriteErrorFailsWithoutPublishing) {
  FaultInjector::ResetGlobalForTest("checkpoint.write=error:1.0");
  nn::ParameterStore store;
  FillTinyStore(&store);
  const std::string path = TempPath("fault_ckpt_write.ckpt");
  std::remove(path.c_str());  // the healthy save below persists across runs
  const Status status =
      nn::SaveCheckpoint(path, nn::CheckpointMeta(), store, TinyAdam());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(nn::CheckpointExists(path))
      << "a failed save must not leave a checkpoint behind";

  // Healthy again: the same save goes through.
  FaultInjector::ResetGlobalForTest("");
  EXPECT_TRUE(
      nn::SaveCheckpoint(path, nn::CheckpointMeta(), store, TinyAdam())
          .ok());
  EXPECT_TRUE(nn::CheckpointExists(path));
}

TEST_F(GlobalFaultTest, CheckpointReadFaultsNeverEscapeValidation) {
  const std::string path = TempPath("fault_ckpt_read.ckpt");
  {
    nn::ParameterStore store;
    FillTinyStore(&store);
    ASSERT_TRUE(nn::SaveCheckpoint(path, nn::CheckpointMeta(), store,
                                   TinyAdam())
                    .ok());
  }
  // Corruption at the read site is caught by the envelope checks; an
  // injected read error surfaces as UNAVAILABLE. Either way: a clean
  // Status, never a crash or a silently wrong restore.
  for (const char* spec :
       {"seed=1,checkpoint.read=bitflip:1.0", "seed=2,checkpoint.read=trunc:1.0",
        "checkpoint.read=error:1.0"}) {
    FaultInjector::ResetGlobalForTest(spec);
    nn::ParameterStore store;
    FillTinyStore(&store);
    nn::CheckpointMeta meta;
    nn::AdamState adam = TinyAdam();
    const Status status = nn::LoadCheckpoint(path, &meta, &store, &adam);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kUnavailable)
        << spec << ": " << status;
  }
  // The file itself was never touched: a healthy load succeeds.
  FaultInjector::ResetGlobalForTest("");
  nn::ParameterStore store;
  FillTinyStore(&store);
  nn::CheckpointMeta meta;
  nn::AdamState adam = TinyAdam();
  EXPECT_TRUE(nn::LoadCheckpoint(path, &meta, &store, &adam).ok());
}

// --- Global injector hygiene ------------------------------------------

TEST_F(GlobalFaultTest, ResetGlobalSwapsTheRecipe) {
  FaultInjector::ResetGlobalForTest("score=error:1.0");
  EXPECT_TRUE(FaultInjector::Global().enabled());
  EXPECT_FALSE(FaultInjector::Global().InjectError("score").ok());
  FaultInjector::ResetGlobalForTest("");
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(FaultInjector::Global().InjectError("score").ok());
}

}  // namespace
}  // namespace o2sr::common
