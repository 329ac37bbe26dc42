#include "xml/token_writer.h"

namespace mqp::xml {

void TokenWriter::Emit(std::string_view raw) {
  size_ += raw.size();
  if (out_ != nullptr) out_->append(raw);
}

void TokenWriter::EmitChar(char c) {
  ++size_;
  if (out_ != nullptr) out_->push_back(c);
}

void TokenWriter::EmitEscapedText(std::string_view s) {
  // Same rules as EscapeText; the counting sink prices without copying.
  for (char c : s) {
    switch (c) {
      case '&':
        Emit("&amp;");
        break;
      case '<':
        Emit("&lt;");
        break;
      case '>':
        Emit("&gt;");
        break;
      default:
        EmitChar(c);
    }
  }
}

void TokenWriter::EmitEscapedAttr(std::string_view s) {
  // Same rules as EscapeAttr.
  for (char c : s) {
    switch (c) {
      case '&':
        Emit("&amp;");
        break;
      case '<':
        Emit("&lt;");
        break;
      case '>':
        Emit("&gt;");
        break;
      case '"':
        Emit("&quot;");
        break;
      case '\'':
        Emit("&apos;");
        break;
      default:
        EmitChar(c);
    }
  }
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
  EmitEscapedAttr(value);
  EmitChar('"');
}

void TokenWriter::Text(std::string_view text) {
  CloseStartTag();
  EmitEscapedText(text);
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
