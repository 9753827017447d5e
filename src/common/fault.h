#ifndef O2SR_COMMON_FAULT_H_
#define O2SR_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace o2sr::common {

// Deterministic fault injection for resilience testing (DESIGN.md §10).
//
// Production code threads *injection points* — named sites — through its
// failure-prone paths (file reads, scoring, cache lookups); a fault *recipe*
// parsed from the O2SR_FAULTS knob (common/env.h) decides which sites
// misbehave and how:
//
//   O2SR_FAULTS="seed=7,snapshot.read=bitflip:0.01,score=delay:5ms,score=error:0.02"
//
// Grammar: comma-separated `site=kind:arg` rules plus an optional `seed=N`
// entry. Kinds:
//
//   bitflip:<p>   flip one deterministic bit of the buffer with probability p
//   trunc:<p>     truncate the buffer to a deterministic prefix with prob. p
//   error:<p>     return UNAVAILABLE with probability p
//   delay:<dur>   sleep for <dur> on every call (e.g. 5ms, 250us, 1.5s)
//
// Every decision is a pure function of (seed, site, rule, per-rule call
// index), so a recipe replays the identical fault sequence run after run —
// chaos tests are as reproducible as golden tests. With no rules configured
// (the default) every injection point collapses to a branch on a false
// boolean; the hot path pays nothing.
//
// The facility is for tests, CI chaos smokes and benchmarks only; a
// malformed O2SR_FAULTS recipe is a loud programmer error (CHECK), never a
// silently ignored one.

enum class FaultKind { kBitflip, kTruncate, kError, kDelay };

const char* FaultKindName(FaultKind kind);

class FaultInjector {
 public:
  // An injector with no rules: every site is healthy.
  FaultInjector() = default;

  // Parses a recipe string (see the grammar above). Empty spec => no rules.
  static StatusOr<std::unique_ptr<FaultInjector>> Parse(
      const std::string& spec);

  // Process-wide injector, parsed once from O2SR_FAULTS (CHECK-fails on a
  // malformed recipe — fault injection is a test facility and must fail
  // loudly, not silently run healthy).
  static FaultInjector& Global();

  // Re-parses the global injector from `spec` (tests only). Safe against
  // concurrent injection calls: the previous injector is parked, not freed,
  // so in-flight readers never dangle (a bounded, test-only leak).
  static void ResetGlobalForTest(const std::string& spec);

  // True when at least one rule exists (callers may skip building
  // diagnostics when the whole facility is off).
  bool enabled() const { return !rules_.empty(); }

  // --- Injection points (called from production code) -------------------

  // UNAVAILABLE when an `error` rule for `site` fires; OK otherwise.
  Status InjectError(const std::string& site);

  // Sleeps when a `delay` rule for `site` exists.
  void InjectDelay(const std::string& site);

  // Applies `bitflip` / `trunc` rules for `site` to `bytes` in place.
  // No-op on an empty buffer.
  void InjectCorruption(const std::string& site, std::string* bytes);

  // --- Introspection (tests, chaos reporting) ---------------------------

  // Total faults fired at `site` across all rules.
  uint64_t FiredCount(const std::string& site) const;
  // Total faults fired across all sites.
  uint64_t TotalFired() const;

 private:
  struct Rule {
    FaultKind kind = FaultKind::kError;
    double probability = 0.0;  // bitflip/trunc/error
    double delay_ms = 0.0;     // delay
    uint64_t site_hash = 0;
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> fired{0};
  };

  // Deterministically decides whether `rule` fires on its next call and
  // returns a per-call mixing value for position choices.
  bool Fires(Rule& rule, uint64_t* mix);

  uint64_t seed_ = 0;
  // site -> rules, in recipe order. Rules are heap-allocated because they
  // hold atomics.
  std::map<std::string, std::vector<std::unique_ptr<Rule>>> rules_;
};

}  // namespace o2sr::common

#endif  // O2SR_COMMON_FAULT_H_
