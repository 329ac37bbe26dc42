#include "common/status.h"

namespace mqp {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kUnresolved:
      return "Unresolved";
    case StatusCode::kTimeout:
      return "Timeout";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace mqp
