// Pull-mode streaming XML tokenizer — the decode half of the streaming
// codec (DESIGN.md §5).
//
// A DOM parser materializes a full Node tree whose strings are all owned
// copies; on the wire hot path that tree would be built once per hop and
// immediately discarded. TokenReader walks the XML subset mqp uses and
// hands out a flat token stream instead:
//
//   StartElement(name) Attr(key,value)* (Text | StartElement...)* EndElement
//
// Token string_views are borrowed — either directly from the input buffer
// (the common case: no entities) or from an internal scratch that the next
// Next() call overwrites. Consumers must copy what they keep before
// advancing. Entity decoding happens on demand via DecodeEntityAt
// (xml/entities.h), and the whitespace rules match the DOM parser the
// tests keep in tests/support/dom_parser.h exactly (whitespace-only text
// runs are dropped; runs coalesce across comments, PIs, entities and
// CDATA), so a token walk observes the same logical document as that
// parser. Errors carry byte offsets in the same format.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "xml/node.h"

namespace mqp::xml {

enum class TokenType {
  kStartElement,  ///< name = tag; attributes follow as kAttr tokens
  kAttr,          ///< name = key, value = decoded attribute value
  kText,          ///< value = decoded character data (significant runs only)
  kEndElement,    ///< name = tag (synthesized for self-closing elements)
  kEndOfInput,    ///< document fully consumed
};

/// \brief One token. The views stay valid only until the next Next().
struct Token {
  TokenType type = TokenType::kEndOfInput;
  std::string_view name;   ///< element tag or attribute key
  std::string_view value;  ///< attribute value or text content
};

/// \brief Attribute set collected by TokenReader::ReadAttrs. Linear
/// lookup with last-writer-wins duplicates, mirroring Node::SetAttr.
/// Reset() forgets the entries but keeps the slots (and their string
/// capacity), so decoders can reuse one list per recursion depth and
/// decode whole documents without per-element allocations.
class AttrList {
 public:
  void Add(std::string_view key, std::string_view value);

  /// The value for `key`, or nullptr when absent.
  const std::string* Find(std::string_view key) const;

  /// The value for `key`, or `fallback` (mirrors Node::AttrOr).
  std::string Get(std::string_view key, std::string_view fallback = "") const;

  /// Allocation-free Get for comparisons; the view borrows from the list.
  std::string_view GetView(std::string_view key,
                           std::string_view fallback = "") const {
    const std::string* v = Find(key);
    return v != nullptr ? std::string_view(*v) : fallback;
  }

  bool empty() const { return size_ == 0; }

  /// Forgets the entries, keeping slot and string capacity for reuse.
  void Reset() { size_ = 0; }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
  size_t size_ = 0;  // live prefix of items_
};

/// \brief The recognizer behind verbatim `<data>` leaves (DESIGN.md §5).
/// `in[begin]` opens a run of sibling elements that ends at a close tag.
/// Returns that close tag's offset when every byte of the run is
/// *canonical* — exactly what TokenWriter::Write emits for the nodes a
/// TokenReader decodes from it — and std::string_view::npos otherwise.
/// Rejected: whitespace inside tags, single quotes, `<a></a>`,
/// whitespace-only text, entities other than `&amp;` `&lt;` `&gt;` in
/// text (those plus `&quot;` `&apos;` in attributes), raw `>` in text
/// and raw `<` `>` `'` in attributes, comments, CDATA and PIs, duplicate
/// attributes, text between the run's elements, a top-level element
/// named `histogram` (a plan annotation, not an item), nesting deeper
/// than 64 elements and more than 32 attributes on one element. A
/// rejected run still decodes, eagerly. On acceptance `*items`, when
/// given, receives the run's top-level element count: its item count.
size_t CanonicalRunEnd(std::string_view in, size_t begin,
                       size_t* items = nullptr);

/// \brief The pull tokenizer. Create one per document; call Next() until
/// kEndOfInput. Errors are sticky: after a failure every subsequent call
/// returns the same status.
class TokenReader {
 public:
  explicit TokenReader(std::string_view input) : in_(input) {}

  /// Advances to and returns the next token.
  Result<Token> Next();

  /// Advance without Result construction — the hot-loop form. Returns
  /// false on a (sticky) error, see status(); on success current() holds
  /// the new token (kEndOfInput at the end of the document).
  bool Advance();

  /// OK until a scan fails; then the failure, permanently.
  const Status& status() const { return status_; }

  /// The token most recently produced by Next()/Advance().
  const Token& current() const { return current_; }

  /// Current byte offset (for error reporting and diagnostics).
  size_t offset() const { return pos_; }

  /// Number of elements currently open.
  size_t depth() const { return stack_.size(); }

  /// Error in the DOM parser's format: "msg (at byte N)".
  Status Error(std::string msg) const;

  // --- convenience consumers ---------------------------------------------------

  /// Collects the attribute tokens of the just-started element into `out`
  /// (Reset first) and returns the first non-attribute token (text, child
  /// start, or the element's end). Precondition: current() is
  /// kStartElement. Element *names* are always borrowed from the input
  /// buffer (never from scratch), so a name view taken here stays valid
  /// for the reader's lifetime.
  Result<Token> ReadAttrs(AttrList* out);

  /// Consumes the current element (through its matching end tag) into a
  /// DOM subtree — the bridge for verbatim data items, which stay modeled
  /// as xml::Node. Precondition: current() is kStartElement. Returns with
  /// current() == that element's kEndElement.
  Result<std::unique_ptr<Node>> MaterializeSubtree();

  /// Consumes tokens until the innermost open element's end tag. Called
  /// right after a kStartElement it skips that whole element; called
  /// mid-content it finishes the enclosing element. Returns with
  /// current() == the matching kEndElement.
  Status SkipToElementEnd();

  /// Jumps past the canonical run (CanonicalRunEnd) that starts with the
  /// element current() has just opened and ends at the enclosing
  /// element's close tag. Returns the run's bytes, a view into the input;
  /// the next Advance() then yields the enclosing element's kEndElement.
  /// Returns an empty view and leaves the reader unchanged when the run
  /// is not canonical. Precondition: current() is a kStartElement whose
  /// attributes have not been read. `*items` receives the run's item
  /// count (see CanonicalRunEnd).
  std::string_view SkipCanonicalRun(size_t* items);

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }

  void SkipWhitespace();
  void SkipUntil(std::string_view end);
  void SkipDoctype();
  void SkipMisc();

  // The scanners set current_ and return true, or set status_ and return
  // false — no per-token Result construction on the hot path.
  bool Fail(std::string msg);
  bool ScanName(std::string_view* out);
  bool ScanInTag();
  bool ScanContent();
  bool ScanTopLevel();
  bool ScanStartTag();
  bool ScanCloseTag();

  std::string_view in_;
  size_t pos_ = 0;
  bool in_tag_ = false;          // between a start tag's name and its '>'
  bool done_ = false;
  std::vector<std::string_view> stack_;  // open element names (views into in_)
  std::string scratch_;          // backing for decoded attr/text values
  Token current_;
  Status status_ = Status::OK();
};

}  // namespace mqp::xml
