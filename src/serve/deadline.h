#ifndef O2SR_SERVE_DEADLINE_H_
#define O2SR_SERVE_DEADLINE_H_

#include <chrono>
#include <limits>

namespace o2sr::serve {

// Per-request latency budget, carried through the serving path as a fixed
// point on the steady clock. Copyable and cheap; the default-constructed
// Deadline is infinite (never expires), so callers that don't care pay
// nothing.
//
// The contract (DESIGN.md §10): the engine checks the deadline *before*
// each expensive step, never mid-kernel. A request whose deadline has
// already passed at admission is shed (RESOURCE_EXHAUSTED); one that
// expires between admission and model scoring skips the scorer and falls
// down the degraded ladder (stale cache, then popularity prior) instead of
// burning compute the client has stopped waiting for.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  // Expires `budget_ms` milliseconds from now. Non-positive budgets are
  // already expired.
  static Deadline AfterMs(double budget_ms) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   budget_ms));
    return d;
  }

  bool infinite() const { return infinite_; }
  bool expired() const { return !infinite_ && Clock::now() >= at_; }

  // Remaining budget in milliseconds; +infinity when infinite, <= 0 when
  // expired.
  double remaining_ms() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(at_ - Clock::now())
        .count();
  }

 private:
  bool infinite_ = true;
  Clock::time_point at_{};
};

}  // namespace o2sr::serve

#endif  // O2SR_SERVE_DEADLINE_H_
