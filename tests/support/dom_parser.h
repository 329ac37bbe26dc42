// The DOM XML parser: a recursive-descent parser that builds an owned
// xml::Node tree, for the subset used by mqp. The library decodes with
// the streaming TokenReader (xml/token_reader.h) and carries no DOM
// parser; tests build fixtures with this one, the DOM plan codec
// (dom_plan_codec.h) decodes through it, and bench_c6_substrate prices it.
//
// Supported: elements, attributes (single/double quoted), character data,
// the five predefined entities plus decimal/hex character references
// (xml::DecodeEntityAt, shared with the TokenReader), comments, processing
// instructions, XML declarations, CDATA sections and DOCTYPE (skipped).
// Namespaces are treated lexically (prefixes kept in names).
// Whitespace-only text runs are dropped (insignificant whitespace), so
// pretty-printed documents re-parse to the same tree. Errors carry a byte
// offset.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/node.h"

namespace mqp::xml {

/// \brief Parses a document with a single root element.
Result<std::unique_ptr<Node>> Parse(std::string_view input);

/// \brief Parses a forest: zero or more sibling elements at top level.
Result<std::vector<std::unique_ptr<Node>>> ParseForest(std::string_view input);

}  // namespace mqp::xml
