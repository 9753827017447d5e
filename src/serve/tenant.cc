#include "serve/tenant.h"

#include <algorithm>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"

namespace o2sr::serve {

TenantRegistry::TenantRegistry() : map_(std::make_shared<const Map>()) {}

std::shared_ptr<const TenantRegistry::Map> TenantRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_;
}

std::string TenantRegistry::MetricsPrefixFor(const std::string& name) {
  return "serve.tenant." + obs::SanitizeMetricLabel(name);
}

common::Status TenantRegistry::Register(
    const std::string& name, std::unique_ptr<core::SiteRecommender> model,
    ServingOptions options) {
  if (name.empty()) {
    return common::InvalidArgumentError(
        "TenantRegistry: tenant name must be non-empty");
  }
  if (model == nullptr) {
    return common::InvalidArgumentError("TenantRegistry: model is null");
  }
  options.metrics_prefix = MetricsPrefixFor(name);
  auto tenant = std::make_shared<Tenant>();
  tenant->name = name;
  tenant->model = std::move(model);
  // Engine creation (FinalizeServing) runs outside the registry lock: a
  // slow table build for one city must not block lookups for the others.
  auto engine = ServingEngine::Create(tenant->model.get(), options);
  if (!engine.ok()) {
    return engine.status().WithContext("registering tenant '" + name + "'");
  }
  tenant->engine = std::move(*engine);

  std::lock_guard<std::mutex> lock(mutex_);
  if (map_->count(name) != 0) {
    return common::FailedPreconditionError(
        "TenantRegistry: tenant '" + name + "' is already registered");
  }
  auto next = std::make_shared<Map>(*map_);
  next->emplace(name, std::move(tenant));
  map_ = std::move(next);
  O2SR_LOG(INFO) << "tenant '" << name << "' registered ("
                 << map_->size() << " tenants hosted)";
  return common::Status::Ok();
}

common::StatusOr<TenantRegistry::TenantPtr> TenantRegistry::Get(
    const std::string& name) const {
  const auto map = Snapshot();
  const auto it = map->find(name);
  if (it == map->end()) {
    return common::NotFoundError("TenantRegistry: unknown tenant '" + name +
                                 "' — request refused, not redirected");
  }
  return it->second;
}

common::StatusOr<SwapReport> TenantRegistry::Swap(
    const std::string& name, const std::string& snapshot_path,
    std::unique_ptr<core::SiteRecommender> staged,
    uint64_t expected_config_hash, const SwapOptions& swap_options) {
  O2SR_ASSIGN_OR_RETURN(const TenantPtr tenant, Get(name));
  return tenant->engine->SwapSnapshot(snapshot_path, std::move(staged),
                                      expected_config_hash, swap_options);
}

common::Status TenantRegistry::Remove(const std::string& name) {
  TenantPtr removed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_->find(name);
    if (it == map_->end()) {
      return common::NotFoundError("TenantRegistry: unknown tenant '" +
                                   name + "'");
    }
    removed = it->second;
    auto next = std::make_shared<Map>(*map_);
    next->erase(name);
    map_ = std::move(next);
  }
  // Drain outside the lock; pinned references keep the engine alive.
  removed->engine->EnterLameDuck();
  O2SR_LOG(INFO) << "tenant '" << name << "' removed (drained to LAME_DUCK)";
  return common::Status::Ok();
}

std::vector<std::string> TenantRegistry::TenantNames() const {
  const auto map = Snapshot();
  std::vector<std::string> names;
  names.reserve(map->size());
  for (const auto& [name, tenant] : *map) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t TenantRegistry::size() const { return Snapshot()->size(); }

}  // namespace o2sr::serve
