#include "xml/token_reader.h"

#include <algorithm>
#include <array>

#include "xml/entities.h"

namespace mqp::xml {

namespace {

// Branch-free character classes (std::isalnum & co. are out-of-line,
// locale-aware calls — too slow for the per-byte hot loop).
struct CharTables {
  std::array<bool, 256> name_start{};
  std::array<bool, 256> name_char{};
  std::array<bool, 256> space{};
  // Bytes canonical text / attribute values never hold raw ('&' only
  // as the start of an escape).
  std::array<bool, 256> text_stop{};
  std::array<bool, 256> attr_stop{};

  constexpr CharTables() {
    for (int c = 'a'; c <= 'z'; ++c) name_start[c] = true;
    for (int c = 'A'; c <= 'Z'; ++c) name_start[c] = true;
    name_start['_'] = name_start[':'] = true;
    name_char = name_start;
    for (int c = '0'; c <= '9'; ++c) name_char[c] = true;
    name_char['-'] = name_char['.'] = true;
    for (char c : {' ', '\t', '\n', '\r', '\v', '\f'}) {
      space[static_cast<unsigned char>(c)] = true;
    }
    text_stop['>'] = text_stop['&'] = true;
    attr_stop = text_stop;
    attr_stop['<'] = attr_stop['\''] = true;
  }
};

constexpr CharTables kChars;

bool IsNameStart(char c) {
  return kChars.name_start[static_cast<unsigned char>(c)];
}

bool IsNameChar(char c) {
  return kChars.name_char[static_cast<unsigned char>(c)];
}

bool IsSpace(char c) { return kChars.space[static_cast<unsigned char>(c)]; }

// Length of the escape TokenWriter would emit at `s`'s start: &amp; &lt;
// &gt; anywhere, &quot; &apos; only in attribute values. 0 for any other
// entity — it decodes to a byte the writer emits differently.
size_t CanonicalEntityLength(std::string_view s, bool in_attr) {
  for (std::string_view e : {"&amp;", "&lt;", "&gt;"}) {
    if (s.starts_with(e)) return e.size();
  }
  if (in_attr) {
    for (std::string_view e : {"&quot;", "&apos;"}) {
      if (s.starts_with(e)) return e.size();
    }
  }
  return 0;
}

}  // namespace

// Pinned to a cache line: its byte-scanning loops are alignment-sensitive,
// and without the pin unrelated code earlier in the link moves them (on a
// 4-core Xeon container, a 48-byte shift cost mix-sim 11-15% qps with no
// code path changed).
[[gnu::aligned(64)]] size_t CanonicalRunEnd(std::string_view in, size_t pos,
                                            size_t* items) {
  constexpr size_t kNo = std::string_view::npos;
  constexpr size_t kMaxDepth = 64;
  constexpr size_t kMaxAttrs = 32;
  const size_t n = in.size();
  if (pos + 1 >= n || in[pos] != '<' || !IsNameStart(in[pos + 1])) {
    return kNo;
  }
  std::array<std::string_view, kMaxDepth> open;  // names of open elements
  std::array<std::string_view, kMaxAttrs> keys;  // the current start tag's
  size_t depth = 0;
  size_t top_level = 0;  // elements opened at depth 0: the run's items
  // Set by a start tag's '>' until its first content: `<a></a>`
  // re-emits as `<a/>`.
  bool no_content = false;
  while (pos < n) {
    if (in[pos] != '<') {
      // Character data, only inside an element and never whitespace-only
      // (the reader drops such runs).
      if (depth == 0) return kNo;
      bool significant = false;
      while (pos < n && in[pos] != '<') {
        const char c = in[pos];
        if (!kChars.text_stop[static_cast<unsigned char>(c)]) {
          significant = significant || !IsSpace(c);
          ++pos;
          continue;
        }
        const size_t len = c == '&' ? CanonicalEntityLength(in.substr(pos),
                                                             /*in_attr=*/false)
                                    : 0;
        if (len == 0) return kNo;  // raw '>' or a non-canonical entity
        pos += len;
        significant = true;
      }
      if (!significant) return kNo;
      no_content = false;
      continue;
    }
    if (pos + 1 < n && in[pos + 1] == '/') {
      if (depth == 0) {  // the close tag that ends the run
        if (items != nullptr) *items = top_level;
        return pos;
      }
      if (no_content) return kNo;
      const std::string_view name = open[--depth];
      const size_t gt = pos + 2 + name.size();
      if (gt >= n || in.substr(pos + 2, name.size()) != name ||
          in[gt] != '>') {
        return kNo;
      }
      pos = gt + 1;
      continue;
    }
    // Start tag: '<' Name (' ' Name '="' value '"')* then '/>' or '>'.
    // A comment, CDATA section or PI fails the name check.
    ++pos;
    if (pos >= n || !IsNameStart(in[pos])) return kNo;
    const size_t name_begin = pos;
    while (pos < n && IsNameChar(in[pos])) ++pos;
    const std::string_view name = in.substr(name_begin, pos - name_begin);
    if (depth == 0) {
      if (name == "histogram") return kNo;
      ++top_level;
    }
    no_content = false;
    size_t num_keys = 0;
    while (pos < n && in[pos] == ' ') {
      const size_t key_begin = ++pos;
      if (pos >= n || !IsNameStart(in[pos])) return kNo;
      while (pos < n && IsNameChar(in[pos])) ++pos;
      const std::string_view key = in.substr(key_begin, pos - key_begin);
      if (num_keys == kMaxAttrs ||
          std::find(keys.begin(), keys.begin() + num_keys, key) !=
              keys.begin() + num_keys ||
          in.substr(pos, 2) != "=\"") {
        return kNo;
      }
      keys[num_keys++] = key;
      pos += 2;
      while (pos < n && in[pos] != '"') {
        const char c = in[pos];
        if (!kChars.attr_stop[static_cast<unsigned char>(c)]) {
          ++pos;
          continue;
        }
        const size_t len = c == '&' ? CanonicalEntityLength(in.substr(pos),
                                                            /*in_attr=*/true)
                                    : 0;
        if (len == 0) return kNo;  // raw '<' '>' '\'' or a bad entity
        pos += len;
      }
      if (pos >= n) return kNo;
      ++pos;  // closing quote
    }
    if (in.substr(pos, 2) == "/>") {
      pos += 2;
    } else if (pos < n && in[pos] == '>') {
      if (depth == kMaxDepth) return kNo;
      open[depth++] = name;
      no_content = true;
      ++pos;
    } else {
      return kNo;
    }
  }
  return kNo;
}

void AttrList::Add(std::string_view key, std::string_view value) {
  for (size_t i = 0; i < size_; ++i) {
    if (items_[i].first == key) {
      items_[i].second.assign(value);
      return;
    }
  }
  if (size_ < items_.size()) {
    items_[size_].first.assign(key);
    items_[size_].second.assign(value);
  } else {
    if (items_.capacity() == 0) items_.reserve(8);
    items_.emplace_back(std::string(key), std::string(value));
  }
  ++size_;
}

const std::string* AttrList::Find(std::string_view key) const {
  for (size_t i = 0; i < size_; ++i) {
    if (items_[i].first == key) return &items_[i].second;
  }
  return nullptr;
}

std::string AttrList::Get(std::string_view key,
                          std::string_view fallback) const {
  const std::string* v = Find(key);
  return v != nullptr ? *v : std::string(fallback);
}

Status TokenReader::Error(std::string msg) const {
  return Status::ParseError(msg + " (at byte " + std::to_string(pos_) + ")");
}

bool TokenReader::Fail(std::string msg) {
  status_ = Error(std::move(msg));
  return false;
}

void TokenReader::SkipWhitespace() {
  while (!AtEnd() && IsSpace(Peek())) ++pos_;
}

void TokenReader::SkipUntil(std::string_view end) {
  const size_t found = in_.find(end, pos_);
  pos_ = (found == std::string_view::npos) ? in_.size() : found + end.size();
}

void TokenReader::SkipDoctype() {
  // Skip to the matching '>' allowing one level of [] internal subset.
  int bracket = 0;
  while (!AtEnd()) {
    const char c = Peek();
    ++pos_;
    if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      --bracket;
    } else if (c == '>' && bracket <= 0) {
      return;
    }
  }
}

void TokenReader::SkipMisc() {
  while (true) {
    SkipWhitespace();
    if (AtEnd() || Peek() != '<') return;
    if (PeekAt(1) == '?') {
      SkipUntil("?>");
    } else if (PeekAt(1) == '!' && PeekAt(2) == '-' && PeekAt(3) == '-') {
      SkipUntil("-->");
    } else if (PeekAt(1) == '!' && in_.substr(pos_, 9) == "<!DOCTYPE") {
      SkipDoctype();
    } else {
      return;
    }
  }
}

bool TokenReader::ScanName(std::string_view* out) {
  if (AtEnd() || !IsNameStart(Peek())) {
    return Fail("expected name");
  }
  const size_t start = pos_;
  ++pos_;
  while (!AtEnd() && IsNameChar(Peek())) ++pos_;
  *out = in_.substr(start, pos_ - start);
  return true;
}

Result<Token> TokenReader::Next() {
  if (!Advance()) return status_;
  return current_;
}

bool TokenReader::Advance() {
  if (!status_.ok()) return false;
  if (done_) {
    current_ = Token{};
    return true;
  }
  if (in_tag_) return ScanInTag();
  if (stack_.empty()) return ScanTopLevel();
  return ScanContent();
}

bool TokenReader::ScanTopLevel() {
  SkipMisc();
  if (AtEnd()) {
    done_ = true;
    current_ = Token{};
    return true;
  }
  if (Peek() != '<') {
    return Fail("unexpected character data at top level");
  }
  return ScanStartTag();
}

bool TokenReader::ScanStartTag() {
  // Precondition: Peek() == '<' and this is (claimed to be) a start tag.
  ++pos_;
  std::string_view name;
  if (!ScanName(&name)) return false;
  stack_.push_back(name);
  in_tag_ = true;
  current_ = Token{TokenType::kStartElement, name, {}};
  return true;
}

bool TokenReader::ScanInTag() {
  SkipWhitespace();
  if (AtEnd()) return Fail("unterminated start tag");
  if (Peek() == '>') {
    ++pos_;
    in_tag_ = false;
    return ScanContent();
  }
  if (Peek() == '/' && PeekAt(1) == '>') {
    pos_ += 2;
    in_tag_ = false;
    current_ = Token{TokenType::kEndElement, stack_.back(), {}};
    stack_.pop_back();
    return true;
  }
  std::string_view key;
  if (!ScanName(&key)) return false;
  SkipWhitespace();
  if (AtEnd() || Peek() != '=') return Fail("expected '=' after attribute");
  ++pos_;
  SkipWhitespace();
  if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
    return Fail("expected quoted attribute value");
  }
  const char quote = Peek();
  ++pos_;
  const size_t start = pos_;
  const size_t close = in_.find(quote, start);
  if (close == std::string_view::npos) {
    pos_ = in_.size();
    return Fail("unterminated attribute value");
  }
  // Fast path: no entities — the value is a borrowed slice of the input.
  const std::string_view raw = in_.substr(start, close - start);
  const size_t amp_rel = raw.find('&');
  if (amp_rel == std::string_view::npos) {
    current_ = Token{TokenType::kAttr, key, raw};
    pos_ = close + 1;
    return true;
  }
  // Slow path: decode into scratch.
  scratch_.assign(raw.substr(0, amp_rel));
  pos_ = start + amp_rel;
  while (!AtEnd() && Peek() != quote) {
    if (Peek() == '&') {
      auto next = DecodeEntityAt(in_, pos_, &scratch_);
      if (!next.ok()) {
        status_ = next.status();
        return false;
      }
      pos_ = *next;
    } else {
      const size_t stop =
          std::min(in_.find('&', pos_), in_.find(quote, pos_));
      scratch_.append(in_.substr(pos_, stop - pos_));
      pos_ = std::min(stop, in_.size());
    }
  }
  if (AtEnd()) return Fail("unterminated attribute value");
  ++pos_;  // closing quote
  current_ = Token{TokenType::kAttr, key, scratch_};
  return true;
}

bool TokenReader::ScanCloseTag() {
  // Precondition: input at "</".
  pos_ += 2;
  std::string_view close;
  if (!ScanName(&close)) return false;
  const std::string_view open = stack_.back();
  if (close != open) {
    return Fail("mismatched close tag </" + std::string(close) + "> for <" +
                std::string(open) + ">");
  }
  SkipWhitespace();
  if (AtEnd() || Peek() != '>') return Fail("expected '>'");
  ++pos_;
  stack_.pop_back();
  current_ = Token{TokenType::kEndElement, close, {}};
  return true;
}

bool TokenReader::ScanContent() {
  // Accumulate one text run, mirroring the DOM parser: runs coalesce
  // across entities, CDATA, comments and PIs, and are emitted only when
  // they contain CDATA or non-whitespace. `borrowed` tracks whether the
  // run is still a contiguous raw slice of the input.
  bool significant = false;
  bool borrowed = true;
  size_t run_start = pos_;
  scratch_.clear();
  auto have_text = [&]() {
    return borrowed ? pos_ > run_start : !scratch_.empty();
  };
  auto to_scratch = [&]() {
    if (borrowed) {
      scratch_.assign(in_.substr(run_start, pos_ - run_start));
      borrowed = false;
    }
  };
  auto emit_text = [&]() {
    current_ = Token{TokenType::kText, {},
                     borrowed ? in_.substr(run_start, pos_ - run_start)
                              : std::string_view(scratch_)};
    return true;
  };
  while (true) {
    if (AtEnd()) {
      // Same message (and, like the DOM parser, no byte offset) as
      // ParseContent's unterminated-element error.
      status_ = Status::ParseError("unterminated element <" +
                                   std::string(stack_.back()) + ">");
      return false;
    }
    const char c = Peek();
    if (c == '<') {
      if (PeekAt(1) == '/') {
        if (significant && have_text()) return emit_text();
        return ScanCloseTag();
      }
      if (PeekAt(1) == '!' && PeekAt(2) == '-' && PeekAt(3) == '-') {
        to_scratch();
        SkipUntil("-->");
        continue;
      }
      if (in_.substr(pos_, 9) == "<![CDATA[") {
        to_scratch();
        pos_ += 9;
        const size_t end = in_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          return Fail("unterminated CDATA section");
        }
        scratch_ += in_.substr(pos_, end - pos_);
        significant = true;
        pos_ = end + 3;
        continue;
      }
      if (PeekAt(1) == '?') {
        to_scratch();
        SkipUntil("?>");
        continue;
      }
      if (significant && have_text()) return emit_text();
      return ScanStartTag();
    }
    if (c == '&') {
      to_scratch();
      auto next = DecodeEntityAt(in_, pos_, &scratch_);
      if (!next.ok()) {
        status_ = next.status();
        return false;
      }
      pos_ = *next;
      significant = true;
      continue;
    }
    // Raw character chunk: consume through the next markup or entity.
    size_t stop = in_.find_first_of("<&", pos_);
    if (stop == std::string_view::npos) stop = in_.size();
    if (!significant) {
      for (size_t i = pos_; i < stop; ++i) {
        if (!IsSpace(in_[i])) {
          significant = true;
          break;
        }
      }
    }
    if (!borrowed) scratch_.append(in_.substr(pos_, stop - pos_));
    pos_ = stop;
  }
}

Result<Token> TokenReader::ReadAttrs(AttrList* out) {
  out->Reset();
  while (true) {
    if (!Advance()) return status_;
    if (current_.type != TokenType::kAttr) return current_;
    out->Add(current_.name, current_.value);
  }
}

Result<std::unique_ptr<Node>> TokenReader::MaterializeSubtree() {
  auto node = Node::Element(std::string(current_.name));
  while (true) {
    if (!Advance()) return status_;
    switch (current_.type) {
      case TokenType::kAttr:
        node->SetAttr(current_.name, std::string(current_.value));
        break;
      case TokenType::kText:
        node->AddText(std::string(current_.value));
        break;
      case TokenType::kStartElement: {
        MQP_ASSIGN_OR_RETURN(auto child, MaterializeSubtree());
        node->AddChild(std::move(child));
        break;
      }
      case TokenType::kEndElement:
        return node;
      case TokenType::kEndOfInput:
        return Error("unexpected end of input");  // unreachable: scan errors
    }
  }
}

std::string_view TokenReader::SkipCanonicalRun(size_t* items) {
  if (current_.type != TokenType::kStartElement || !in_tag_) return {};
  // Element names are borrowed from the input, right after their '<'.
  const size_t begin =
      static_cast<size_t>(current_.name.data() - in_.data()) - 1;
  const size_t end = CanonicalRunEnd(in_, begin, items);
  if (end == std::string_view::npos) return {};
  stack_.pop_back();  // the run's first element, opened by ScanStartTag
  in_tag_ = false;
  pos_ = end;
  return in_.substr(begin, end - begin);
}

Status TokenReader::SkipToElementEnd() {
  if (stack_.empty()) return Error("no open element to skip");
  const size_t target = stack_.size();
  while (true) {
    if (!Advance()) return status_;
    if (current_.type == TokenType::kEndElement && stack_.size() < target) {
      return Status::OK();
    }
    if (current_.type == TokenType::kEndOfInput) {
      return Error("unexpected end of input");  // unreachable: scan errors
    }
  }
}

}  // namespace mqp::xml
