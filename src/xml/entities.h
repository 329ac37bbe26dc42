// XML entity references: the escaping the writers apply and the decoding
// the TokenReader applies, for the subset used by mqp (the five
// predefined entities plus decimal/hex character references).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.h"

namespace mqp::xml {

/// \brief Escapes text content (&, <, >).
std::string EscapeText(std::string_view s);

/// \brief Escapes an attribute value (&, <, >, ", ').
std::string EscapeAttr(std::string_view s);

/// \brief Decodes the entity reference starting at `pos` in `in` (which
/// must point at '&'): the five predefined entities plus decimal/hex
/// character references (emitted as UTF-8). Appends the decoded bytes to
/// `out` and returns the offset just past the ';'. The single source of
/// entity-decoding truth for the TokenReader (and the DOM parser in
/// tests/support); errors carry byte offsets as "(at byte N)".
Result<size_t> DecodeEntityAt(std::string_view in, size_t pos,
                              std::string* out);

}  // namespace mqp::xml
