// Streaming XML emitter — the encode half of the streaming codec
// (DESIGN.md §5).
//
// Replaces the build-DOM-then-Serialize pattern on the wire path: callers
// emit Start/Attr/Text/End events and the writer appends the compact
// serialization directly, byte-identical to xml::Serialize of the
// equivalent tree (same escaping, "/>" for childless elements). A writer
// constructed without an output string is a counting sink: it runs the
// same emission logic but only tallies bytes, which is how PlanWireSize
// prices a plan without materializing anything.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

#include "xml/node.h"

namespace mqp::xml {

class TokenWriter {
 public:
  /// Counting sink: size() prices the emission, nothing is materialized.
  TokenWriter() = default;

  /// String sink: appends to `*out` (not owned, must outlive the writer).
  explicit TokenWriter(std::string* out) : out_(out) {}

  /// Opens `<name ...`. The tag stays open for attributes until the first
  /// Text/Start/End.
  void Start(std::string_view name);

  /// Emits ` key="value"` with attribute escaping. Must directly follow
  /// Start or another Attr.
  void Attr(std::string_view key, std::string_view value);

  /// Emits ` key="digits"` for an integer: the bytes of
  /// Attr(key, std::to_string(value)), written straight into the output
  /// (digits need no escaping).
  template <std::integral T>
  void Attr(std::string_view key, T value) {
    char digits[24];  // a sign and 20 digits at most
    const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
    AttrRaw(key, std::string_view(digits, end - digits));
  }

  /// Emits escaped character data. An empty string still closes the open
  /// start tag (mirroring a DOM empty-text child: `<a></a>`, not `<a/>`).
  void Text(std::string_view text);

  /// Closes the innermost open element: "/>" when nothing was emitted
  /// since its Start, "</name>" otherwise.
  void End();

  /// Emits a DOM subtree in compact form — the bridge for data items,
  /// which stay modeled as xml::Node.
  void Write(const Node& node);

  /// Appends complete markup verbatim as content of the open element —
  /// the bridge for a canonical item run (CanonicalRunEnd), which is
  /// byte-identical to what Write emits for its items. Counted like any
  /// other emission, so a counting sink stays exact.
  void Raw(std::string_view markup);

  /// Bytes emitted so far (== the output growth for a string sink).
  size_t size() const { return size_; }

  /// True when every Start has been End-ed (sanity checks in tests).
  bool balanced() const { return stack_.empty(); }

 private:
  struct Open {
    std::string name;
    bool has_content = false;
  };

  void CloseStartTag();
  /// Attr for a value that needs no escaping.
  void AttrRaw(std::string_view key, std::string_view value);
  void Emit(std::string_view raw);
  void EmitChar(char c);
  /// Emits `s` escaped for an attribute value (`attr`) or for text.
  void EmitEscaped(std::string_view s, bool attr);

  std::string* out_ = nullptr;
  size_t size_ = 0;
  std::vector<Open> stack_;
};

}  // namespace mqp::xml
