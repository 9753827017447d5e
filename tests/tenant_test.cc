// TenantRegistry: many named city snapshots served side by side, each with
// its own engine, config, metrics and failure domain. The isolation
// contract under test: one tenant's corrupt snapshot quarantines only that
// tenant, and a request for a city this process does not host fails with a
// typed NOT_FOUND — never a silent fallback to some other tenant's model.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "serve/tenant.h"

namespace o2sr::serve {
namespace {

using common::StatusCode;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

// score(region, type) = scale * (1 + region + 100 * type); scale is a
// restorable parameter so snapshot swaps observably change each tenant.
class ScaledStub : public core::SiteRecommender {
 public:
  explicit ScaledStub(int num_regions, float scale)
      : num_regions_(num_regions) {
    store_.CreateZeros("scaled.scale", 1, 1);
    store_.params()[0]->value.Fill(scale);
  }

  std::string Name() const override { return "ScaledStub"; }
  common::Status Train(const core::TrainContext&) override {
    return common::Status::Ok();
  }
  common::StatusOr<std::vector<double>> Predict(
      const core::InteractionList& pairs) const override {
    std::vector<double> out;
    out.reserve(pairs.size());
    for (const core::Interaction& it : pairs) {
      if (it.type < 0 || it.type >= 10) {
        return common::InvalidArgumentError("scaled stub: unknown type");
      }
      out.push_back(Score(scale(), it.region, it.type));
    }
    return out;
  }
  const nn::ParameterStore* parameter_store() const override {
    return &store_;
  }
  nn::ParameterStore* mutable_parameter_store() override { return &store_; }
  bool CanScoreRegion(int region) const override {
    return region >= 0 && region < num_regions_;
  }

  double scale() const {
    return static_cast<double>(store_.params()[0]->value.at(0, 0));
  }
  static double Score(double scale, int region, int type) {
    return scale * (1.0 + region + 100.0 * type);
  }

 private:
  int num_regions_;
  nn::ParameterStore store_;
};

constexpr uint64_t kConfigHash = 42;

std::string ExportScaled(const char* name, float scale) {
  ScaledStub source(10, scale);
  SnapshotMeta meta;
  meta.model_name = "ScaledStub";
  meta.config_hash = kConfigHash;
  meta.num_regions = 10;
  meta.num_types = 10;
  const std::string path = TempPath(name);
  EXPECT_TRUE(ExportSnapshot(path, meta, source).ok());
  return path;
}

RankRequest Request(int type, std::vector<int> candidates, int k) {
  RankRequest request;
  request.type = type;
  request.candidates = std::move(candidates);
  request.k = k;
  return request;
}

std::unique_ptr<core::SiteRecommender> MakeModel(float scale = 1.0f) {
  return std::make_unique<ScaledStub>(10, scale);
}

class TenantTest : public ::testing::Test {
 protected:
  void TearDown() override {
    common::FaultInjector::ResetGlobalForTest("");
  }
};

TEST_F(TenantTest, MetricsPrefixSanitizesTenantNames) {
  EXPECT_EQ(TenantRegistry::MetricsPrefixFor("beijing"),
            "serve.tenant.beijing");
  EXPECT_EQ(TenantRegistry::MetricsPrefixFor("new york!"),
            "serve.tenant.new_york_");
  EXPECT_EQ(TenantRegistry::MetricsPrefixFor(""), "serve.tenant.unnamed");
}

// --- Registry lifecycle ------------------------------------------------

TEST_F(TenantTest, RegisterGetAndTypedUnknownTenantError) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Register("beijing", MakeModel()).ok());
  ASSERT_TRUE(registry.Register("tianjin", MakeModel()).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.TenantNames(),
            (std::vector<std::string>{"beijing", "tianjin"}));

  const auto tenant = registry.Get("beijing");
  ASSERT_TRUE(tenant.ok());
  const auto response = (*tenant)->engine->Rank(Request(1, {0, 1, 2}, 3));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->sites[0].score, ScaledStub::Score(1.0, 2, 1));

  // Unknown city: a typed refusal, never a redirect to another tenant.
  const auto unknown = registry.Get("shenzhen");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("refused"), std::string::npos);
}

TEST_F(TenantTest, RegisterRejectsBadArgumentsAndDuplicates) {
  TenantRegistry registry;
  EXPECT_EQ(registry.Register("", MakeModel()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("beijing", nullptr).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.Register("beijing", MakeModel()).ok());
  EXPECT_EQ(registry.Register("beijing", MakeModel()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.size(), 1u);
}

TEST_F(TenantTest, PerTenantConfigShapesEachEngineIndependently) {
  ServingOptions tight_options;
  tight_options.max_inflight = 1;
  tight_options.num_shards = 2;

  TenantRegistry registry;
  ASSERT_TRUE(registry.Register("tight", MakeModel(), tight_options).ok());
  ASSERT_TRUE(registry.Register("roomy", MakeModel()).ok());

  const auto tight_tenant = registry.Get("tight").value();
  EXPECT_EQ(tight_tenant->engine->num_shards(), 2);
  const auto response = tight_tenant->engine->Rank(Request(1, {0, 1}, 2));
  EXPECT_TRUE(response.ok()) << response.status();
}

TEST_F(TenantTest, PerTenantMetricsNeverAlias) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Register("metrics-a", MakeModel()).ok());
  ASSERT_TRUE(registry.Register("metrics-b", MakeModel()).ok());
  auto& metrics = obs::MetricsRegistry::Global();
  const uint64_t a_before =
      metrics.GetCounter("serve.tenant.metrics-a.requests")->value();
  const uint64_t b_before =
      metrics.GetCounter("serve.tenant.metrics-b.requests")->value();

  const auto tenant = registry.Get("metrics-a").value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tenant->engine->Rank(Request(1, {0, 1, 2}, 3)).ok());
  }
  EXPECT_EQ(metrics.GetCounter("serve.tenant.metrics-a.requests")->value(),
            a_before + 3);
  EXPECT_EQ(metrics.GetCounter("serve.tenant.metrics-b.requests")->value(),
            b_before);  // the neighbour's traffic is invisible here
}

TEST_F(TenantTest, RemoveDrainsToLameDuckAndFreesTheName) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Register("ephemeral", MakeModel()).ok());
  const auto pin = registry.Get("ephemeral").value();

  ASSERT_TRUE(registry.Remove("ephemeral").ok());
  EXPECT_EQ(registry.Get("ephemeral").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Remove("ephemeral").code(), StatusCode::kNotFound);

  // The pinned engine is alive but draining: every new request is shed.
  EXPECT_EQ(pin->engine->health(), ServeHealth::kLameDuck);
  EXPECT_EQ(pin->engine->Rank(Request(1, {0}, 1)).status().code(),
            StatusCode::kResourceExhausted);

  // The name is free for a replacement tenant.
  ASSERT_TRUE(registry.Register("ephemeral", MakeModel(2.0f)).ok());
  const auto replacement = registry.Get("ephemeral").value();
  const auto response = replacement->engine->Rank(Request(1, {2}, 1));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->sites[0].score, ScaledStub::Score(2.0, 2, 1));
}

// --- Swap + failure isolation ------------------------------------------

TEST_F(TenantTest, SwapPromotesOneTenantOnly) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Register("swap-a", MakeModel()).ok());
  ASSERT_TRUE(registry.Register("swap-b", MakeModel()).ok());

  const std::string path = ExportScaled("tenant_swap.snap", 3.0f);
  const auto report =
      registry.Swap("swap-a", path, MakeModel(0.0f), kConfigHash);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->promoted);
  EXPECT_EQ(report->epoch, 2u);

  const auto a = registry.Get("swap-a").value();
  const auto b = registry.Get("swap-b").value();
  EXPECT_EQ(a->engine->Rank(Request(1, {2}, 1))->sites[0].score,
            ScaledStub::Score(3.0, 2, 1));
  EXPECT_EQ(b->engine->epoch(), 1u);
  EXPECT_EQ(b->engine->Rank(Request(1, {2}, 1))->sites[0].score,
            ScaledStub::Score(1.0, 2, 1));

  EXPECT_EQ(registry.Swap("nowhere", path, MakeModel(0.0f), kConfigHash)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(TenantTest, SnapshotFaultQuarantinesOnlyTheVictimTenant) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Register("victim", MakeModel()).ok());
  ASSERT_TRUE(registry.Register("bystander", MakeModel()).ok());

  // Every snapshot read fails: the victim's swap is rejected and its
  // snapshot quarantined.
  common::FaultInjector::ResetGlobalForTest("snapshot.read=error:1.0");
  const std::string victim_path = ExportScaled("tenant_victim.snap", 3.0f);
  const auto report =
      registry.Swap("victim", victim_path, MakeModel(0.0f), kConfigHash);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->promoted);
  ASSERT_FALSE(report->quarantine_path.empty());
  EXPECT_TRUE(FileExists(report->quarantine_path));
  EXPECT_FALSE(FileExists(victim_path));  // moved aside, not left in place

  // The victim keeps serving its prior epoch, fresh and healthy...
  const auto victim = registry.Get("victim").value();
  EXPECT_EQ(victim->engine->epoch(), 1u);
  const auto served = victim->engine->Rank(Request(1, {2}, 1));
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->tier, ServeTier::kFresh);
  EXPECT_EQ(served->sites[0].score, ScaledStub::Score(1.0, 2, 1));
  EXPECT_EQ(victim->engine->health(), ServeHealth::kServing);

  // ...and the bystander's serving path never noticed (its Rank path does
  // not read snapshots, so the fault recipe cannot touch it).
  const auto bystander = registry.Get("bystander").value();
  const auto untouched = bystander->engine->Rank(Request(1, {2}, 1));
  ASSERT_TRUE(untouched.ok()) << untouched.status();
  EXPECT_EQ(untouched->tier, ServeTier::kFresh);
  EXPECT_EQ(bystander->engine->health(), ServeHealth::kServing);

  // Once the fault clears, the bystander promotes normally: quarantine was
  // a per-tenant event, not a registry-wide one.
  common::FaultInjector::ResetGlobalForTest("");
  const std::string bystander_path =
      ExportScaled("tenant_bystander.snap", 5.0f);
  const auto promoted =
      registry.Swap("bystander", bystander_path, MakeModel(0.0f), kConfigHash);
  ASSERT_TRUE(promoted.ok());
  EXPECT_TRUE(promoted->promoted);
  EXPECT_EQ(bystander->engine->epoch(), 2u);
  EXPECT_EQ(registry.Get("victim").value()->engine->epoch(), 1u);
}

// --- Concurrency -------------------------------------------------------

TEST_F(TenantTest, LookupsRaceRegistrationsAndRemovalsSafely) {
  TenantRegistry registry;
  ASSERT_TRUE(registry.Register("stable", MakeModel()).ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 200; ++i) {
        const auto tenant = registry.Get("stable");
        ASSERT_TRUE(tenant.ok());
        const auto response =
            (*tenant)->engine->Rank(Request(i % 10, {0, 1, 2}, 3));
        ASSERT_TRUE(response.ok()) << response.status();
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) {
      const std::string name = "churn-" + std::to_string(i % 5);
      if (registry.Register(name, MakeModel()).ok()) {
        // Half the time query it before tearing it down again.
        const auto tenant = registry.Get(name);
        if (tenant.ok() && i % 2 == 0) {
          (void)(*tenant)->engine->Rank(Request(1, {0, 1}, 2));
        }
        (void)registry.Remove(name);
      }
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(registry.Get("stable").ok());
  EXPECT_EQ(registry.Get("stable").value()->engine->shed_count(), 0u);
}

}  // namespace
}  // namespace o2sr::serve
