#ifndef O2SR_COMMON_CLOCK_H_
#define O2SR_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace o2sr::common {

// The program's one time base: the steady clock in whole microseconds.
// Trace spans, profiler regions, serving latencies and deadlines, retry
// budgets and the bench drivers' timers all read it, so every duration the
// repo reports is measured on the same clock (DESIGN.md §7). Monotonic, with
// an arbitrary epoch: only differences of two readings mean anything.
inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace o2sr::common

#endif  // O2SR_COMMON_CLOCK_H_
