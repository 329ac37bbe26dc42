// Small string utilities shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mqp {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on `sep`, dropping empty pieces.
std::vector<std::string> SplitSkipEmpty(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a decimal integer of type T (int, uint32_t, int64_t or
/// uint64_t); returns false on garbage or a value outside T's range —
/// for an unsigned T, any negative value. Surrounding whitespace and a
/// leading '+' are accepted.
template <typename T>
bool ParseInteger(std::string_view s, T* out);

/// ParseInteger for int64_t.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a decimal floating-point number; returns false on garbage.
bool ParseDouble(std::string_view s, double* out);

/// <0, 0, >0 like strcmp: numeric comparison when both sides parse as
/// numbers, else lexicographic. The single ordering shared by XPath
/// predicates, expression Values and engine sort keys — they must agree
/// byte for byte.
int CompareNumericAware(std::string_view a, std::string_view b);

/// Formats a double without trailing zero noise ("10", "9.99").
std::string FormatDouble(double d);

}  // namespace mqp
