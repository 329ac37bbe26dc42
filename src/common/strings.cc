#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace mqp {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitSkipEmpty(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (auto& piece : Split(s, sep)) {
    if (!piece.empty()) out.push_back(std::move(piece));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

template <typename T>
bool ParseInteger(std::string_view s, T* out) {
  // from_chars: no temporary buffer, no locale — these run per numeric
  // attribute on the wire decode path. A leading '+' is accepted for
  // strtoll compatibility (from_chars alone rejects it), but only before
  // a digit so "+-5" stays invalid. from_chars reports a value outside
  // T's range, and rejects any '-' for an unsigned T.
  s = Trim(s);
  if (s.size() >= 2 && s.front() == '+' && IsDigit(s[1])) {
    s.remove_prefix(1);
  }
  if (s.empty()) return false;
  T v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

template bool ParseInteger(std::string_view, int*);
template bool ParseInteger(std::string_view, uint32_t*);
template bool ParseInteger(std::string_view, int64_t*);
template bool ParseInteger(std::string_view, uint64_t*);

bool ParseInt64(std::string_view s, int64_t* out) {
  return ParseInteger(s, out);
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.size() >= 2 && s.front() == '+' && (IsDigit(s[1]) || s[1] == '.')) {
    s.remove_prefix(1);
  }
  if (s.empty()) return false;
  double v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

int CompareNumericAware(std::string_view a, std::string_view b) {
  double da, db;
  if (ParseDouble(a, &da) && ParseDouble(b, &db)) {
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  return a.compare(b);
}

std::string FormatDouble(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", d);
  return buf;
}

}  // namespace mqp
