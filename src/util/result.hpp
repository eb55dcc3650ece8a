// Lightweight error handling: `Error` (code + human message) and
// `Result<T>` (value-or-error). Used instead of exceptions on all fallible
// library boundaries, per the project's no-exceptions-on-hot-paths rule.
// `Result` and `Status` are [[nodiscard]] at class level, so every function
// returning one by value is too; the root CMakeLists.txt builds with
// -Werror=unused-result, which makes a dropped error path a compile error.
// Discard deliberately with `(void)`.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace vgbl {

/// Machine-readable error category. Keep coarse; the message carries detail.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kCorruptData,
  kUnsupported,
  kFailedPrecondition,
  kResourceExhausted,
  kIoError,
  kTimeout,
  kInternal,
};

/// Returns a stable lowercase name for an error code (used in logs/tests).
const char* error_code_name(ErrorCode code);

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  [[nodiscard]] std::string to_string() const {
    return std::string(error_code_name(code)) + ": " + message;
  }
};

/// Value-or-error. `ok()` must be checked before `value()`; accessing the
/// wrong alternative asserts in debug builds.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error err) : data_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }

  [[nodiscard]] const Error& error() const {
    assert(!ok());
    return std::get<Error>(data_);
  }

  /// Returns the contained value or `fallback` when this holds an error.
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> data_;
};

/// Result specialisation for operations with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;                                 // success
  Status(Error err) : error_(std::move(err)), failed_(true) {}  // NOLINT

  static Status ok_status() { return Status{}; }

  [[nodiscard]] bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const Error& error() const {
    assert(failed_);
    return error_;
  }

 private:
  Error error_;
  bool failed_ = false;
};

/// Convenience constructors mirroring absl-style factories.
inline Error invalid_argument(std::string msg) {
  return {ErrorCode::kInvalidArgument, std::move(msg)};
}
inline Error not_found(std::string msg) {
  return {ErrorCode::kNotFound, std::move(msg)};
}
inline Error already_exists(std::string msg) {
  return {ErrorCode::kAlreadyExists, std::move(msg)};
}
inline Error out_of_range(std::string msg) {
  return {ErrorCode::kOutOfRange, std::move(msg)};
}
inline Error corrupt_data(std::string msg) {
  return {ErrorCode::kCorruptData, std::move(msg)};
}
inline Error unsupported(std::string msg) {
  return {ErrorCode::kUnsupported, std::move(msg)};
}
inline Error failed_precondition(std::string msg) {
  return {ErrorCode::kFailedPrecondition, std::move(msg)};
}
inline Error resource_exhausted(std::string msg) {
  return {ErrorCode::kResourceExhausted, std::move(msg)};
}
inline Error io_error(std::string msg) {
  return {ErrorCode::kIoError, std::move(msg)};
}
inline Error timeout_error(std::string msg) {
  return {ErrorCode::kTimeout, std::move(msg)};
}
inline Error internal_error(std::string msg) {
  return {ErrorCode::kInternal, std::move(msg)};
}

}  // namespace vgbl
