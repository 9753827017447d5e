#ifndef O2SR_COMMON_RETRY_H_
#define O2SR_COMMON_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/status.h"

namespace o2sr::common {

// Bounded, deterministic retry with exponential backoff — the supervision
// primitive of the continual-retraining pipeline (DESIGN.md §11). A policy
// wraps any fallible operation (train, export, restore, swap) and retries
// transient failures up to a budget; an exhausted budget surfaces the last
// error, annotated with the attempt count, instead of looping forever.
//
// Determinism: the jitter applied to each backoff interval is a pure
// function of (seed, operation name, attempt index), so a retried run
// replays the identical schedule — chaos tests that crash and resume a
// pipeline see the same sleep sequence on every execution.

struct RetryPolicy {
  // Total attempts, first call included. 1 means "no retries".
  int max_attempts = 4;
  // Backoff before attempt n+1 is
  //   min(initial_backoff_ms * growth^n, max_backoff_ms)
  // scaled by a deterministic jitter in [1 - jitter, 1 + jitter].
  double initial_backoff_ms = 5.0;
  double growth = 2.0;
  double max_backoff_ms = 1000.0;
  double jitter = 0.2;
  // Per-attempt wall-clock budget. An attempt that comes back — even OK —
  // after more than this many milliseconds counts as a failed attempt
  // (ABORTED): callers of a deadline-bound stage must not act on a result
  // that arrived after everyone stopped waiting for it. <= 0 disables.
  double per_attempt_timeout_ms = 0.0;
  // Seed of the jitter stream (mixed with the operation name and attempt).
  uint64_t seed = 0;
  // Which failures are worth retrying. Null selects the default predicate:
  // UNAVAILABLE (transient I/O failure), ABORTED (giving up may help),
  // DATA_LOSS (a re-read redraws past transient corruption) and
  // RESOURCE_EXHAUSTED (a budget that may clear). Everything else —
  // contract violations, missing files — fails fast.
  std::function<bool(const Status&)> retryable;
};

// True under the default predicate described on RetryPolicy::retryable.
bool DefaultRetryable(const Status& status);

// What a RunWithRetry call actually did (for metrics and logs).
struct RetryStats {
  int attempts = 0;       // attempts executed (>= 1 unless max_attempts < 1)
  double slept_ms = 0.0;  // total backoff slept
  Status last_error;      // last non-OK result (OK when the op succeeded
                          // first try)
};

// Runs `fn` under `policy`. Returns the first OK result; otherwise the last
// error with "<op> failed after N attempts" context. `stats` may be null.
Status RunWithRetry(const RetryPolicy& policy, const std::string& op,
                    const std::function<Status()>& fn,
                    RetryStats* stats = nullptr);

// StatusOr flavor: value of the first successful attempt.
template <typename T>
StatusOr<T> RunWithRetry(const RetryPolicy& policy, const std::string& op,
                         const std::function<StatusOr<T>()>& fn,
                         RetryStats* stats = nullptr) {
  StatusOr<T> result = InternalError("retry ran no attempts");
  const Status status = RunWithRetry(
      policy, op,
      [&]() -> Status {
        result = fn();
        return result.status();
      },
      stats);
  if (!status.ok()) return status;
  return result;
}

// The deterministic backoff (jitter applied) slept before attempt
// `next_attempt` (1-based: the delay between attempt n and n+1). Exposed so
// tests can assert the schedule without sleeping through it.
double BackoffMsForAttempt(const RetryPolicy& policy, const std::string& op,
                           int next_attempt);

}  // namespace o2sr::common

#endif  // O2SR_COMMON_RETRY_H_
