#include "xml/token_writer.h"

namespace mqp::xml {

namespace {

// The entity that escaping replaces `c` with in an attribute (`attr`) or
// in text, or null: the rules of EscapeAttr and EscapeText.
const char* Entity(char c, bool attr) {
  switch (c) {
    case '&': return "&amp;";
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '"': return attr ? "&quot;" : nullptr;
    case '\'': return attr ? "&apos;" : nullptr;
    default: return nullptr;
  }
}

}  // namespace

void TokenWriter::Emit(std::string_view raw) {
  size_ += raw.size();
  if (out_ != nullptr) out_->append(raw);
}

void TokenWriter::EmitChar(char c) {
  ++size_;
  if (out_ != nullptr) out_->push_back(c);
}

void TokenWriter::EmitEscaped(std::string_view s, bool attr) {
  // Runs that need no escaping are emitted whole; the counting sink
  // prices without copying.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char* entity = Entity(s[i], attr);
    if (entity == nullptr) continue;
    Emit(s.substr(run, i - run));
    Emit(entity);
    run = i + 1;
  }
  Emit(s.substr(run));
}

void TokenWriter::CloseStartTag() {
  if (stack_.empty() || stack_.back().has_content) return;
  stack_.back().has_content = true;
  EmitChar('>');
}

void TokenWriter::Start(std::string_view name) {
  CloseStartTag();
  EmitChar('<');
  Emit(name);
  stack_.push_back(Open{std::string(name), false});
}

void TokenWriter::Attr(std::string_view key, std::string_view value) {
  EmitChar(' ');
  Emit(key);
  Emit("=\"");
  EmitEscaped(value, /*attr=*/true);
  EmitChar('"');
}

void TokenWriter::AttrRaw(std::string_view key, std::string_view value) {
  EmitChar(' ');
  Emit(key);
  Emit("=\"");
  Emit(value);
  EmitChar('"');
}

void TokenWriter::Text(std::string_view text) {
  CloseStartTag();
  EmitEscaped(text, /*attr=*/false);
}

void TokenWriter::End() {
  const Open open = std::move(stack_.back());
  stack_.pop_back();
  if (!open.has_content) {
    Emit("/>");
    return;
  }
  Emit("</");
  Emit(open.name);
  EmitChar('>');
}

void TokenWriter::Write(const Node& node) {
  if (node.is_text()) {
    Text(node.text());
    return;
  }
  Start(node.name());
  for (const auto& [k, v] : node.attrs()) {
    Attr(k, v);
  }
  for (const auto& c : node.children()) {
    Write(*c);
  }
  End();
}

void TokenWriter::Raw(std::string_view markup) {
  CloseStartTag();
  Emit(markup);
}

}  // namespace mqp::xml
