#include "support/dom_parser.h"

#include <cctype>
#include <string>

#include "xml/entities.h"

namespace mqp::xml {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '-' || c == '.';
}

class ParserImpl {
 public:
  explicit ParserImpl(std::string_view input) : in_(input) {}

  Result<std::vector<std::unique_ptr<Node>>> ParseTopLevel() {
    std::vector<std::unique_ptr<Node>> roots;
    SkipMisc();
    while (!AtEnd()) {
      if (Peek() != '<') {
        return Err("unexpected character data at top level");
      }
      MQP_ASSIGN_OR_RETURN(auto node, ParseElement());
      roots.push_back(std::move(node));
      SkipMisc();
    }
    return roots;
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }
  void Advance() { ++pos_; }

  bool ConsumeLiteral(std::string_view lit) {
    if (in_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }

  // Skips whitespace, comments, PIs, XML declarations and DOCTYPE between
  // top-level constructs.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '<') return;
      if (PeekAt(1) == '?') {
        SkipUntil("?>");
      } else if (PeekAt(1) == '!' && PeekAt(2) == '-' && PeekAt(3) == '-') {
        SkipUntil("-->");
      } else if (PeekAt(1) == '!' &&
                 in_.substr(pos_, 9) == "<!DOCTYPE") {
        SkipDoctype();
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view end) {
    const size_t found = in_.find(end, pos_);
    pos_ = (found == std::string_view::npos) ? in_.size() : found + end.size();
  }

  void SkipDoctype() {
    // Skip to the matching '>' allowing one level of [] internal subset.
    int bracket = 0;
    while (!AtEnd()) {
      const char c = Peek();
      Advance();
      if (c == '[') {
        ++bracket;
      } else if (c == ']') {
        --bracket;
      } else if (c == '>' && bracket <= 0) {
        return;
      }
    }
  }

  Status Err(std::string msg) const {
    return Status::ParseError(msg + " (at byte " + std::to_string(pos_) +
                              ")");
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) {
      return Err("expected name");
    }
    const size_t start = pos_;
    Advance();
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return std::string(in_.substr(start, pos_ - start));
  }

  Result<std::string> DecodeEntity() {
    // Precondition: Peek() == '&'.
    std::string out;
    MQP_ASSIGN_OR_RETURN(pos_, DecodeEntityAt(in_, pos_, &out));
    return out;
  }

  Result<std::string> ParseAttrValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Err("expected quoted attribute value");
    }
    const char quote = Peek();
    Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '&') {
        MQP_ASSIGN_OR_RETURN(auto decoded, DecodeEntity());
        value += decoded;
      } else {
        value.push_back(Peek());
        Advance();
      }
    }
    if (AtEnd()) return Err("unterminated attribute value");
    Advance();  // closing quote
    return value;
  }

  Result<std::unique_ptr<Node>> ParseElement() {
    // Precondition: Peek() == '<' and this is a start tag.
    Advance();  // '<'
    MQP_ASSIGN_OR_RETURN(auto name, ParseName());
    auto elem = Node::Element(name);
    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Err("unterminated start tag");
      if (Peek() == '>') {
        Advance();
        break;
      }
      if (Peek() == '/' && PeekAt(1) == '>') {
        pos_ += 2;
        return elem;  // empty element
      }
      MQP_ASSIGN_OR_RETURN(auto key, ParseName());
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Err("expected '=' after attribute");
      Advance();
      SkipWhitespace();
      MQP_ASSIGN_OR_RETURN(auto value, ParseAttrValue());
      elem->SetAttr(key, std::move(value));
    }
    // Content.
    MQP_RETURN_IF_ERROR(ParseContent(elem.get(), name));
    return elem;
  }

  Status ParseContent(Node* elem, const std::string& name) {
    std::string text;
    bool text_significant = false;  // saw CDATA or non-whitespace
    auto flush_text = [&]() {
      if (!text.empty() && text_significant) {
        elem->AddText(std::move(text));
      }
      text.clear();
      text_significant = false;
    };
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("unterminated element <" + name + ">");
      }
      if (Peek() == '<') {
        if (PeekAt(1) == '/') {
          flush_text();
          pos_ += 2;
          MQP_ASSIGN_OR_RETURN(auto close, ParseName());
          if (close != name) {
            return Err("mismatched close tag </" + close + "> for <" + name +
                       ">");
          }
          SkipWhitespace();
          if (AtEnd() || Peek() != '>') return Err("expected '>'");
          Advance();
          return Status::OK();
        }
        if (PeekAt(1) == '!' && PeekAt(2) == '-' && PeekAt(3) == '-') {
          SkipUntil("-->");
          continue;
        }
        if (ConsumeLiteral("<![CDATA[")) {
          const size_t end = in_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            return Err("unterminated CDATA section");
          }
          text += std::string(in_.substr(pos_, end - pos_));
          text_significant = true;
          pos_ = end + 3;
          continue;
        }
        if (PeekAt(1) == '?') {
          SkipUntil("?>");
          continue;
        }
        flush_text();
        MQP_ASSIGN_OR_RETURN(auto child, ParseElement());
        elem->AddChild(std::move(child));
        continue;
      }
      if (Peek() == '&') {
        MQP_ASSIGN_OR_RETURN(auto decoded, DecodeEntity());
        text += decoded;
        text_significant = true;
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(Peek()))) {
        text_significant = true;
      }
      text.push_back(Peek());
      Advance();
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Node>> Parse(std::string_view input) {
  ParserImpl p(input);
  MQP_ASSIGN_OR_RETURN(auto roots, p.ParseTopLevel());
  if (roots.size() != 1) {
    return Status::ParseError("expected exactly one root element, found " +
                              std::to_string(roots.size()));
  }
  return std::move(roots[0]);
}

Result<std::vector<std::unique_ptr<Node>>> ParseForest(
    std::string_view input) {
  ParserImpl p(input);
  return p.ParseTopLevel();
}

}  // namespace mqp::xml
