#ifndef O2SR_COMMON_STATUS_H_
#define O2SR_COMMON_STATUS_H_

#include <iosfwd>
#include <string>
#include <utility>

#include "common/check.h"

namespace o2sr::common {

// Error-handling vocabulary of the project (Google style, exception-free).
//
// The boundary between Status and CHECK: O2SR_CHECK guards *programmer
// errors* (violated invariants, out-of-range indices) and aborts; Status
// reports *recoverable runtime conditions* (bad input files, exhausted
// retry budgets, corrupt checkpoints) to the caller, who decides how to
// degrade. Anything that depends on data from outside the process must use
// Status, never CHECK.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     // malformed caller input (bad row, bad option)
  kNotFound,            // a named resource does not exist
  kFailedPrecondition,  // operation cannot run in the current state
  kOutOfRange,          // value outside the permitted interval
  kDataLoss,            // unrecoverable corruption (bad checksum, truncation)
  kResourceExhausted,   // a budget (retries, capacity) ran out
  kAborted,             // operation gave up; retrying may help
  kUnavailable,         // transient environment failure (I/O error)
  kInternal,            // invariant broke in a recoverable context
  kUnimplemented,       // the operation is not supported by this type
};

const char* StatusCodeName(StatusCode code);

// Value-type status: a code plus a human-readable message. The default
// constructor yields OK. Cheap to copy (OK carries no allocation in
// practice since the message is empty).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: row 7: field 'creation_min' ...".
  std::string ToString() const;

  // Returns a copy with `context + ": "` prepended to the message (no-op on
  // OK), for annotating errors as they cross layer boundaries.
  Status WithContext(const std::string& context) const;

 private:
  StatusCode code_;
  std::string message_;
};

// Streams ToString(); lets tests write `EXPECT_TRUE(s.ok()) << s`.
std::ostream& operator<<(std::ostream& os, const Status& status);

// Constructors for the common codes.
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status DataLossError(std::string message);
Status ResourceExhaustedError(std::string message);
Status AbortedError(std::string message);
Status UnavailableError(std::string message);
Status InternalError(std::string message);
Status UnimplementedError(std::string message);

// Status-or-value. `ok()` decides which is present; accessing the value of
// a failed StatusOr is a checked programmer error.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    O2SR_CHECK(!status_.ok());  // OK without a value is meaningless
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    O2SR_CHECK_OK(status_);
    return value_;
  }
  T& value() & {
    O2SR_CHECK_OK(status_);
    return value_;
  }
  T&& value() && {
    O2SR_CHECK_OK(status_);
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Annotates the error message as it crosses a layer boundary (no-op when
  // ok); rvalue-qualified so it chains off a call without copying the value.
  StatusOr WithContext(const std::string& context) && {
    if (!status_.ok()) status_ = status_.WithContext(context);
    return std::move(*this);
  }

 private:
  Status status_;
  T value_{};
};

}  // namespace o2sr::common

// Propagates a non-OK Status to the caller.
//
//   O2SR_RETURN_IF_ERROR(WriteManifest(path, manifest));
#define O2SR_RETURN_IF_ERROR(expr)                      \
  do {                                                  \
    ::o2sr::common::Status o2sr_status_tmp_ = (expr);   \
    if (!o2sr_status_tmp_.ok()) return o2sr_status_tmp_; \
  } while (false)

// Unwraps a StatusOr into `lhs`, propagating a non-OK status.
//
//   O2SR_ASSIGN_OR_RETURN(const Checkpoint ckpt, LoadCheckpoint(path));
#define O2SR_ASSIGN_OR_RETURN(lhs, expr)                       \
  O2SR_ASSIGN_OR_RETURN_IMPL_(                                 \
      O2SR_STATUS_CONCAT_(o2sr_statusor_, __LINE__), lhs, expr)

#define O2SR_STATUS_CONCAT_INNER_(a, b) a##b
#define O2SR_STATUS_CONCAT_(a, b) O2SR_STATUS_CONCAT_INNER_(a, b)
#define O2SR_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#endif  // O2SR_COMMON_STATUS_H_
