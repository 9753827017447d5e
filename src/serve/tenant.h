#ifndef O2SR_SERVE_TENANT_H_
#define O2SR_SERVE_TENANT_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/recommender.h"
#include "serve/engine.h"

namespace o2sr::serve {

// A registry of named tenants (cities), each owning a serving model and a
// fully independent ServingEngine: private caches and shard counters, its
// own hot-swap/canary/quarantine path, its own deadline/shedding/fallback
// configuration, and its own metric + SLO gauges under the registry prefix
// "serve.tenant.<sanitized-name>". Nothing is shared between tenants but
// the process-wide metrics registry, so one city's corrupt snapshot or
// traffic spike cannot touch another's serving state (proven by
// tests/tenant_test.cc under fault injection).
//
// Lifecycle of a tenant: Register (model + engine born SERVING) ->
// any number of Swap calls (promote/reject per PR-5 canary machinery) ->
// Remove (engine enters LAME_DUCK, storage dropped once the last pinned
// reference releases).
//
// Thread-safety: all methods are safe to call concurrently. Lookups copy
// one shared_ptr under a briefly-held mutex; the pointed-to map is
// immutable (mutations copy-on-write a replacement), so a lookup never
// contends with a mutation's real work. Get() returns a shared_ptr pin,
// so a tenant removed mid-request stays alive until its last user lets
// go.
class TenantRegistry {
 public:
  struct Tenant {
    std::string name;
    std::unique_ptr<core::SiteRecommender> model;
    std::unique_ptr<ServingEngine> engine;
  };
  using TenantPtr = std::shared_ptr<Tenant>;

  TenantRegistry();

  // Creates the tenant's engine over `model` (ownership transfers) with
  // `options`, forcing options.metrics_prefix to the tenant's own prefix.
  // FAILED_PRECONDITION when the name is already registered;
  // INVALID_ARGUMENT on an empty name or null model; engine-creation
  // failures propagate (the model is dropped).
  common::Status Register(const std::string& name,
                          std::unique_ptr<core::SiteRecommender> model,
                          ServingOptions options = {});

  // The tenant, pinned. NOT_FOUND with a typed error for unknown names —
  // requests for a city this process does not host must fail loudly, never
  // fall back to some other tenant's model.
  common::StatusOr<TenantPtr> Get(const std::string& name) const;

  // Hot-swaps `name`'s engine to the snapshot at `snapshot_path` (the full
  // SwapSnapshot contract: canaries, quarantine on reject, epoch bump).
  // NOT_FOUND for unknown tenants.
  common::StatusOr<SwapReport> Swap(
      const std::string& name, const std::string& snapshot_path,
      std::unique_ptr<core::SiteRecommender> staged,
      uint64_t expected_config_hash, const SwapOptions& swap_options = {});

  // Drains (EnterLameDuck) and unlists the tenant; NOT_FOUND when absent.
  // In-flight pins keep the engine alive until they release.
  common::Status Remove(const std::string& name);

  // Sorted tenant names.
  std::vector<std::string> TenantNames() const;
  size_t size() const;

  // The registry metric prefix for `name`: "serve.tenant." +
  // obs::SanitizeMetricLabel(name).
  static std::string MetricsPrefixFor(const std::string& name);

 private:
  using Map = std::unordered_map<std::string, TenantPtr>;

  std::shared_ptr<const Map> Snapshot() const;

  mutable std::mutex mutex_;  // serializes mutations
  std::shared_ptr<const Map> map_;
};

}  // namespace o2sr::serve

#endif  // O2SR_SERVE_TENANT_H_
