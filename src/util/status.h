#ifndef CQBOUNDS_UTIL_STATUS_H_
#define CQBOUNDS_UTIL_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <variant>

namespace cqbounds {

/// Error categories used across the library (Arrow/RocksDB-style status
/// codes). `kOk` is reserved for the success singleton.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kResourceExhausted,
  kParseError,
  kInfeasible,
  kUnbounded,
};

/// Returns a short human-readable name for `code` ("OK", "InvalidArgument"...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kOutOfRange: return "OutOfRange";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kUnimplemented: return "Unimplemented";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kResourceExhausted: return "ResourceExhausted";
    case StatusCode::kParseError: return "ParseError";
    case StatusCode::kInfeasible: return "Infeasible";
    case StatusCode::kUnbounded: return "Unbounded";
  }
  return "Unknown";
}

/// Lightweight success/error value. The library does not throw exceptions on
/// expected failure paths; functions that can fail return `Status` or
/// `Result<T>`.
///
/// [[nodiscard]]: silently dropping a returned Status is how partial writes
/// and swallowed parse errors ship, so the compiler flags every ignored
/// return (and the `discarded-status` rule of scripts/lint/cqb_lint.py
/// backstops builds that run without warnings). An intentionally discarded
/// status must say so with an explicit `(void)` cast and a comment.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Unbounded(std::string msg) {
    return Status(StatusCode::kUnbounded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "Code: message" (or "OK").
  std::string ToString() const {
    if (ok()) return "OK";
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value of type `T` or an error `Status`. Modeled after
/// `arrow::Result`: checked access via `ok()`, value access via
/// `ValueOrDie()` / `operator*` (aborts if holding an error).
/// [[nodiscard]] for the same reason as Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: allows `return value;` in Result-returning funcs.
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status; aborts if the status is OK (an OK Result
  /// must carry a value).
  Result(Status status) : payload_(std::move(status)) {  // NOLINT
    if (std::get<Status>(payload_).ok()) {
      std::cerr << "Result constructed from OK status without a value\n";
      std::abort();
    }
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }

  /// Returns the value; aborts with a diagnostic if this holds an error.
  const T& ValueOrDie() const {
    if (!ok()) {
      std::cerr << "Result::ValueOrDie on error: " << status().ToString()
                << "\n";
      std::abort();
    }
    return std::get<T>(payload_);
  }
  T& ValueOrDie() {
    if (!ok()) {
      std::cerr << "Result::ValueOrDie on error: " << status().ToString()
                << "\n";
      std::abort();
    }
    return std::get<T>(payload_);
  }

  const T& operator*() const { return ValueOrDie(); }
  T& operator*() { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Moves the value out; aborts if this holds an error.
  T MoveValueOrDie() {
    if (!ok()) {
      std::cerr << "Result::MoveValueOrDie on error: " << status().ToString()
                << "\n";
      std::abort();
    }
    return std::move(std::get<T>(payload_));
  }

 private:
  std::variant<T, Status> payload_;
};

/// Propagates a non-OK `Status` from an expression to the caller.
#define CQB_RETURN_NOT_OK(expr)                   \
  do {                                            \
    ::cqbounds::Status _st = (expr);              \
    if (!_st.ok()) return _st;                    \
  } while (0)

/// Evaluates a `Result<T>` expression, propagating errors; on success binds
/// the moved value to `lhs`.
#define CQB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = tmp.MoveValueOrDie();

#define CQB_ASSIGN_OR_RETURN(lhs, expr) \
  CQB_ASSIGN_OR_RETURN_IMPL(CQB_CONCAT_(_cqb_res_, __LINE__), lhs, expr)

#define CQB_CONCAT_(a, b) CQB_CONCAT_IMPL_(a, b)
#define CQB_CONCAT_IMPL_(a, b) a##b

/// Aborts the process with a message if `cond` is false. Used for internal
/// invariants that indicate programming errors (not recoverable conditions).
#define CQB_CHECK(cond)                                                   \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::cerr << "CQB_CHECK failed at " << __FILE__ << ":" << __LINE__ \
                << ": " #cond "\n";                                       \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

}  // namespace cqbounds

#endif  // CQBOUNDS_UTIL_STATUS_H_
