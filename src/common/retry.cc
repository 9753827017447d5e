#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.h"

namespace o2sr::common {

namespace {

uint64_t HashOp(const std::string& op) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : op) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

bool DefaultRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kAborted:
    case StatusCode::kDataLoss:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

double BackoffMsForAttempt(const RetryPolicy& policy, const std::string& op,
                           int next_attempt) {
  if (next_attempt < 1) return 0.0;
  const double base = std::min(
      policy.initial_backoff_ms * std::pow(policy.growth, next_attempt - 1),
      policy.max_backoff_ms);
  const double u = ToUnit(SplitMix64(policy.seed ^ HashOp(op) ^
                                     static_cast<uint64_t>(next_attempt)));
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  return std::max(0.0, base * (1.0 - jitter + 2.0 * jitter * u));
}

Status RunWithRetry(const RetryPolicy& policy, const std::string& op,
                    const std::function<Status()>& fn, RetryStats* stats) {
  RetryStats local;
  RetryStats& s = stats != nullptr ? *stats : local;
  s = RetryStats();
  if (policy.max_attempts < 1) {
    return InvalidArgumentError("retry policy for '" + op +
                                "' allows no attempts (max_attempts " +
                                std::to_string(policy.max_attempts) + ")");
  }
  const auto retryable =
      policy.retryable ? policy.retryable : DefaultRetryable;
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    Status status = fn();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    ++s.attempts;
    if (policy.per_attempt_timeout_ms > 0.0 &&
        elapsed_ms > policy.per_attempt_timeout_ms) {
      status = AbortedError(
          op + ": attempt " + std::to_string(attempt) + " exceeded its " +
          std::to_string(policy.per_attempt_timeout_ms) + " ms budget" +
          (status.ok() ? " (result discarded as stale)"
                       : " and failed: " + status.message()));
    }
    if (status.ok()) return status;
    s.last_error = status;
    if (attempt == policy.max_attempts || !retryable(status)) {
      return status.WithContext(op + " failed after " +
                                std::to_string(s.attempts) + " attempt(s)");
    }
    const double backoff_ms = BackoffMsForAttempt(policy, op, attempt);
    if (backoff_ms > 0.0) {
      s.slept_ms += backoff_ms;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }
  return InternalError(op + ": retry loop exited without a result");
}

}  // namespace o2sr::common
