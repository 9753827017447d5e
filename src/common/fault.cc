#include "common/fault.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/rng.h"

namespace o2sr::common {

namespace {

uint64_t HashSite(const std::string& site) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : site) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Uniform double in [0, 1) from 53 random bits.
double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

Status ParseProbability(const std::string& token, const std::string& rule,
                        double* out) {
  char* end = nullptr;
  const double p = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return InvalidArgumentError("fault rule '" + rule +
                                "': probability must be in [0, 1], got '" +
                                token + "'");
  }
  *out = p;
  return Status::Ok();
}

Status ParseDurationMs(const std::string& token, const std::string& rule,
                       double* out) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || value < 0.0) {
    return InvalidArgumentError("fault rule '" + rule +
                                "': bad duration '" + token + "'");
  }
  const std::string unit(end);
  double scale = 0.0;
  if (unit == "us") {
    scale = 1e-3;
  } else if (unit == "ms") {
    scale = 1.0;
  } else if (unit == "s") {
    scale = 1e3;
  } else {
    return InvalidArgumentError("fault rule '" + rule + "': duration unit '" +
                                unit + "' is not us/ms/s");
  }
  *out = value * scale;
  return Status::Ok();
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBitflip:
      return "bitflip";
    case FaultKind::kTruncate:
      return "trunc";
    case FaultKind::kError:
      return "error";
    case FaultKind::kDelay:
      return "delay";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<FaultInjector>> FaultInjector::Parse(
    const std::string& spec) {
  auto injector = std::make_unique<FaultInjector>();
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("fault rule '" + entry +
                                  "' is not site=kind:arg");
    }
    const std::string site = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (site.empty()) {
      return InvalidArgumentError("fault rule '" + entry +
                                  "' has an empty site");
    }
    if (site == "seed") {
      char* end = nullptr;
      const unsigned long long seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return InvalidArgumentError("fault seed '" + value +
                                    "' is not an integer");
      }
      injector->seed_ = static_cast<uint64_t>(seed);
      continue;
    }
    const size_t colon = value.find(':');
    if (colon == std::string::npos) {
      return InvalidArgumentError("fault rule '" + entry +
                                  "' is missing the kind:arg part");
    }
    const std::string kind_name = value.substr(0, colon);
    const std::string arg = value.substr(colon + 1);
    auto rule = std::make_unique<Rule>();
    rule->site_hash = HashSite(site);
    if (kind_name == "bitflip") {
      rule->kind = FaultKind::kBitflip;
      O2SR_RETURN_IF_ERROR(ParseProbability(arg, entry, &rule->probability));
    } else if (kind_name == "trunc") {
      rule->kind = FaultKind::kTruncate;
      O2SR_RETURN_IF_ERROR(ParseProbability(arg, entry, &rule->probability));
    } else if (kind_name == "error") {
      rule->kind = FaultKind::kError;
      O2SR_RETURN_IF_ERROR(ParseProbability(arg, entry, &rule->probability));
    } else if (kind_name == "delay") {
      rule->kind = FaultKind::kDelay;
      rule->probability = 1.0;
      O2SR_RETURN_IF_ERROR(ParseDurationMs(arg, entry, &rule->delay_ms));
    } else {
      return InvalidArgumentError(
          "fault rule '" + entry + "': kind '" + kind_name +
          "' is not bitflip/trunc/error/delay");
    }
    injector->rules_[site].push_back(std::move(rule));
  }
  return injector;
}

namespace {
// Lock-free fast path: injection points sit on serving hot paths (every
// cache lookup), so Global() must not take a mutex per call. The current
// injector is published through an atomic pointer; replaced injectors are
// parked in a graveyard instead of freed, because a concurrent injection
// call may still be reading one (a bounded, test-only leak).
std::atomic<FaultInjector*> g_current{nullptr};
std::mutex g_swap_mutex;  // serializes initialization / reset
std::vector<std::unique_ptr<FaultInjector>>& Graveyard() {
  static auto* graveyard = new std::vector<std::unique_ptr<FaultInjector>>();
  return *graveyard;
}

void PublishGlobal(std::unique_ptr<FaultInjector> injector) {
  FaultInjector* raw = injector.get();
  Graveyard().push_back(std::move(injector));
  g_current.store(raw, std::memory_order_release);
}
}  // namespace

FaultInjector& FaultInjector::Global() {
  FaultInjector* current = g_current.load(std::memory_order_acquire);
  if (current != nullptr) return *current;
  std::lock_guard<std::mutex> lock(g_swap_mutex);
  current = g_current.load(std::memory_order_acquire);
  if (current == nullptr) {
    auto parsed = Parse(EnvString(Knob::kFaults));
    O2SR_CHECK_OK(parsed.status());
    PublishGlobal(std::move(parsed).value());
    current = g_current.load(std::memory_order_acquire);
  }
  return *current;
}

void FaultInjector::ResetGlobalForTest(const std::string& spec) {
  auto parsed = Parse(spec);
  O2SR_CHECK_OK(parsed.status());
  std::lock_guard<std::mutex> lock(g_swap_mutex);
  PublishGlobal(std::move(parsed).value());
}

bool FaultInjector::Fires(Rule& rule, uint64_t* mix) {
  const uint64_t n = rule.calls.fetch_add(1, std::memory_order_relaxed);
  const uint64_t bits =
      SplitMix64(seed_ ^ rule.site_hash ^
                 (n * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(rule.kind)));
  if (mix != nullptr) *mix = SplitMix64(bits);
  const bool fires = rule.probability >= 1.0 || ToUnit(bits) < rule.probability;
  if (fires) rule.fired.fetch_add(1, std::memory_order_relaxed);
  return fires;
}

Status FaultInjector::InjectError(const std::string& site) {
  if (rules_.empty()) return Status::Ok();
  const auto it = rules_.find(site);
  if (it == rules_.end()) return Status::Ok();
  for (const auto& rule : it->second) {
    if (rule->kind != FaultKind::kError) continue;
    if (Fires(*rule, nullptr)) {
      return UnavailableError("injected fault: " + site + "=error");
    }
  }
  return Status::Ok();
}

void FaultInjector::InjectDelay(const std::string& site) {
  if (rules_.empty()) return;
  const auto it = rules_.find(site);
  if (it == rules_.end()) return;
  for (const auto& rule : it->second) {
    if (rule->kind != FaultKind::kDelay) continue;
    if (Fires(*rule, nullptr)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(rule->delay_ms));
    }
  }
}

void FaultInjector::InjectCorruption(const std::string& site,
                                     std::string* bytes) {
  if (rules_.empty() || bytes == nullptr || bytes->empty()) return;
  const auto it = rules_.find(site);
  if (it == rules_.end()) return;
  for (const auto& rule : it->second) {
    uint64_t mix = 0;
    if (rule->kind == FaultKind::kBitflip) {
      if (!Fires(*rule, &mix)) continue;
      const uint64_t bit = mix % (bytes->size() * 8);
      (*bytes)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    } else if (rule->kind == FaultKind::kTruncate) {
      if (!Fires(*rule, &mix)) continue;
      bytes->resize(mix % bytes->size());
    }
  }
}

uint64_t FaultInjector::FiredCount(const std::string& site) const {
  const auto it = rules_.find(site);
  if (it == rules_.end()) return 0;
  uint64_t total = 0;
  for (const auto& rule : it->second) {
    total += rule->fired.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FaultInjector::TotalFired() const {
  uint64_t total = 0;
  for (const auto& [site, rules] : rules_) {
    for (const auto& rule : rules) {
      total += rule->fired.load(std::memory_order_relaxed);
    }
  }
  return total;
}

}  // namespace o2sr::common
