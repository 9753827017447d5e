#ifndef O2SR_SERVE_DEADLINE_H_
#define O2SR_SERVE_DEADLINE_H_

#include <cstdint>
#include <limits>

#include "common/clock.h"

namespace o2sr::serve {

// Per-request latency budget, carried through the serving path as an
// expiry instant on common::NowMicros, the clock that times the request.
// Copyable and cheap; the default-constructed Deadline is infinite (never
// expires), so callers that don't care pay nothing.
//
// The contract (DESIGN.md §10): the engine checks the deadline *before*
// each expensive step, never mid-kernel. A request whose deadline has
// already passed at admission is shed (RESOURCE_EXHAUSTED); one that
// expires between admission and model scoring skips the scorer and falls
// down the degraded ladder (stale cache, then popularity prior) instead of
// burning compute the client has stopped waiting for.
class Deadline {
 public:
  // Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  // Expires `budget_ms` milliseconds from now, truncated to whole
  // microseconds. Non-positive budgets are already expired.
  static Deadline AfterMs(double budget_ms) {
    Deadline d;
    d.infinite_ = false;
    d.at_us_ = common::NowMicros() + static_cast<int64_t>(budget_ms * 1e3);
    return d;
  }

  bool infinite() const { return infinite_; }
  bool expired() const {
    return !infinite_ && common::NowMicros() >= at_us_;
  }

  // Remaining budget in milliseconds; +infinity when infinite, <= 0 when
  // expired.
  double remaining_ms() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return static_cast<double>(at_us_ - common::NowMicros()) / 1e3;
  }

 private:
  bool infinite_ = true;
  int64_t at_us_ = 0;
};

}  // namespace o2sr::serve

#endif  // O2SR_SERVE_DEADLINE_H_
