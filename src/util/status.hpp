// Lightweight error handling for msgroof.
//
// The simulator is a library: internal invariant violations are programming
// errors and abort loudly (MRL_CHECK); recoverable conditions surface as
// Status / Result<T> so callers can react without exceptions crossing a
// rank's fiber boundary.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace mrl {

/// Error categories used across the library.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kOutOfRange,
  kDeadlock,
  kTimeout,
  kNotFound,
  kResourceExhausted,
  kInternal,
};

/// Human-readable name for an ErrorCode.
constexpr std::string_view to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case ErrorCode::kOutOfRange: return "OUT_OF_RANGE";
    case ErrorCode::kDeadlock: return "DEADLOCK";
    case ErrorCode::kTimeout: return "TIMEOUT";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "MRL_CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg[0] ? " — " : "", msg);
  std::fflush(stderr);
  std::abort();
}
}  // namespace detail

/// A status: OK or an error code plus message. Cheap to copy when OK.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  [[nodiscard]] bool is_ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] std::string to_string() const {
    if (is_ok()) return "OK";
    return std::string(mrl::to_string(code_)) + ": " + message_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Result<T>: a value or a Status. Minimal expected<>-style type so the
/// library has no exception-based error paths across threads.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}        // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) { // NOLINT(google-explicit-constructor)
    if (status_.is_ok()) {
      status_ = Status(ErrorCode::kInternal, "Result constructed from OK status");
    }
  }

  [[nodiscard]] bool is_ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T& value() & {
    check_has_value();
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    check_has_value();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    check_has_value();
    return std::move(*value_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return value_ ? *value_ : std::move(fallback);
  }

 private:
  // Accessing value() on an error Result is a programming error: abort with
  // the carried status instead of dereferencing an empty optional.
  void check_has_value() const {
    if (!value_.has_value()) {
      detail::check_failed("Result::value()", __FILE__, __LINE__,
                           status_.message().c_str());
    }
  }

  std::optional<T> value_;
  Status status_;
};

}  // namespace mrl

/// Invariant check: aborts with location on failure. Used for programming
/// errors only (never for user-input validation).
#define MRL_CHECK(cond)                                                \
  do {                                                                 \
    if (!(cond)) ::mrl::detail::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define MRL_CHECK_MSG(cond, msg)                                        \
  do {                                                                  \
    if (!(cond))                                                        \
      ::mrl::detail::check_failed(#cond, __FILE__, __LINE__, (msg));    \
  } while (0)
