// Status: lightweight error model used throughout the mqp library.
//
// Follows the Arrow/RocksDB idiom: library functions that can fail return
// Status (or Result<T>, see result.h) instead of throwing exceptions.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace mqp {

/// Error category carried by a non-ok Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,   ///< caller passed something malformed
  kParseError = 2,        ///< malformed XML / URN / plan text
  kNotFound = 3,          ///< resource, category, or URN unknown
  kUnresolved = 4,        ///< a URN/URL could not be resolved here
  kTimeout = 5,           ///< query time budget exhausted
  kInternal = 6,          ///< invariant violation inside the library
};

/// \brief Human-readable name of a StatusCode (e.g. "ParseError").
std::string_view StatusCodeToString(StatusCode code);

/// \brief Success-or-error result of an operation.
///
/// A Status is cheap to copy in the OK case (no allocation). Error states
/// carry a code and a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unresolved(std::string msg) {
    return Status(StatusCode::kUnresolved, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK Status to the caller.
#define MQP_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::mqp::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                    \
  } while (false)

}  // namespace mqp
