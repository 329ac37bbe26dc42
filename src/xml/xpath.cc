#include "xml/xpath.h"

#include <cctype>

#include "common/strings.h"

namespace mqp::xml {

namespace {

bool IsStepChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.' || c == ':';
}

// Numeric comparison when both parse, else lexicographic.
int Compare(const std::string& a, const std::string& b) {
  return mqp::CompareNumericAware(a, b);
}

void CollectDescendants(const Node& n, const std::string& name,
                        std::vector<const Node*>* out) {
  for (const auto& c : n.children()) {
    if (!c->is_element()) continue;
    if (name == "*" || c->name() == name) out->push_back(c.get());
    CollectDescendants(*c, name, out);
  }
}

}  // namespace

Result<XPath> XPath::Parse(std::string_view expr) {
  XPath xp;
  xp.text_ = std::string(expr);
  std::string_view s = mqp::Trim(expr);
  if (s.empty()) return Status::ParseError("empty XPath expression");

  size_t pos = 0;
  bool first = true;
  xp.absolute_ = !s.empty() && s[0] == '/';
  while (pos < s.size()) {
    Step step;
    if (s[pos] == '/') {
      ++pos;
      if (pos < s.size() && s[pos] == '/') {
        step.descendant = true;
        ++pos;
      }
    } else if (first) {
      // Relative path: first step has no leading slash.
    } else {
      return Status::ParseError("expected '/' in XPath at offset " +
                                std::to_string(pos));
    }
    first = false;
    if (pos >= s.size()) {
      return Status::ParseError("trailing '/' in XPath");
    }
    if (s[pos] == '@') {
      step.is_attr = true;
      ++pos;
    }
    if (s[pos] == '*') {
      step.name = "*";
      ++pos;
    } else {
      const size_t start = pos;
      while (pos < s.size() && IsStepChar(s[pos])) ++pos;
      if (pos == start) {
        return Status::ParseError("expected step name at offset " +
                                  std::to_string(pos));
      }
      step.name = std::string(s.substr(start, pos - start));
    }
    // Predicates.
    while (pos < s.size() && s[pos] == '[') {
      // Find the closing ']', skipping quoted literals so ids containing
      // ']' survive ("[@id='a]b']"). A quote opens a literal only right
      // after a comparison operator — mirroring the literal parse below —
      // so bare literals containing an apostrophe ("[id=it's]") keep
      // their legacy meaning.
      size_t close = pos + 1;
      bool after_op = false;
      while (close < s.size() && s[close] != ']') {
        const char c = s[close];
        if ((c == '\'' || c == '"') && after_op) {
          const size_t end = s.find(c, close + 1);
          if (end == std::string_view::npos) {
            close = s.size();  // unterminated literal: unterminated predicate
            break;
          }
          close = end + 1;
          after_op = false;
          continue;
        }
        if (c == '=' || c == '<' || c == '>') {
          after_op = true;
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
          after_op = false;
        }
        ++close;
      }
      if (close >= s.size()) {
        return Status::ParseError("unterminated predicate");
      }
      std::string_view body = mqp::Trim(s.substr(pos + 1, close - pos - 1));
      pos = close + 1;
      if (body.empty()) return Status::ParseError("empty predicate");
      Predicate pred;
      // Position predicate: all digits.
      bool all_digits = true;
      for (char c : body) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          all_digits = false;
          break;
        }
      }
      if (all_digits) {
        pred.is_position = true;
        int64_t v = 0;
        mqp::ParseInt64(body, &v);
        if (v < 1) return Status::ParseError("position predicate must be >=1");
        pred.position = static_cast<size_t>(v);
        step.preds.push_back(std::move(pred));
        continue;
      }
      // operand (op literal)?
      size_t i = 0;
      if (body[i] == '@') {
        pred.operand_is_attr = true;
        ++i;
      }
      if (body[i] == '.') {
        pred.operand_is_self = true;
        ++i;
      } else {
        const size_t start = i;
        while (i < body.size() && IsStepChar(body[i])) ++i;
        if (i == start && !pred.operand_is_self) {
          return Status::ParseError("expected predicate operand");
        }
        pred.operand = std::string(body.substr(start, i - start));
      }
      while (i < body.size() &&
             std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
      if (i < body.size()) {
        // Comparison operator.
        if (body[i] == '!' && i + 1 < body.size() && body[i + 1] == '=') {
          pred.op = CompareOp::kNe;
          i += 2;
        } else if (body[i] == '<') {
          ++i;
          if (i < body.size() && body[i] == '=') {
            pred.op = CompareOp::kLe;
            ++i;
          } else {
            pred.op = CompareOp::kLt;
          }
        } else if (body[i] == '>') {
          ++i;
          if (i < body.size() && body[i] == '=') {
            pred.op = CompareOp::kGe;
            ++i;
          } else {
            pred.op = CompareOp::kGt;
          }
        } else if (body[i] == '=') {
          pred.op = CompareOp::kEq;
          ++i;
        } else {
          return Status::ParseError("bad predicate operator");
        }
        while (i < body.size() &&
               std::isspace(static_cast<unsigned char>(body[i]))) {
          ++i;
        }
        if (i >= body.size()) {
          return Status::ParseError("missing predicate literal");
        }
        if (body[i] == '\'' || body[i] == '"') {
          const char quote = body[i];
          const size_t end = body.find(quote, i + 1);
          if (end == std::string_view::npos) {
            return Status::ParseError("unterminated string literal");
          }
          pred.literal = std::string(body.substr(i + 1, end - i - 1));
          i = end + 1;
        } else {
          pred.literal = std::string(mqp::Trim(body.substr(i)));
          i = body.size();
        }
      }
      step.preds.push_back(std::move(pred));
    }
    xp.steps_.push_back(std::move(step));
  }
  if (xp.steps_.empty()) return Status::ParseError("no steps in XPath");
  // Attribute steps may only be final.
  for (size_t i = 0; i + 1 < xp.steps_.size(); ++i) {
    if (xp.steps_[i].is_attr) {
      return Status::ParseError("attribute step must be final");
    }
  }
  return xp;
}

bool XPath::selects_attribute() const {
  return !steps_.empty() && steps_.back().is_attr;
}

std::optional<std::string> XPath::StepKeyEqLiteral(size_t i,
                                                   std::string_view key,
                                                   bool* attr_operand) const {
  const Step& step = steps_[i];
  if (step.preds.size() != 1) return std::nullopt;
  const Predicate& p = step.preds[0];
  if (p.is_position || p.operand_is_self || p.op != CompareOp::kEq ||
      p.operand != key) {
    return std::nullopt;
  }
  if (attr_operand != nullptr) *attr_operand = p.operand_is_attr;
  return p.literal;
}

XPath XPath::SuffixFrom(size_t first) const {
  // text_ is left empty: nothing reads it, and this runs per fetch on
  // the store's steady path.
  XPath out;
  out.absolute_ = true;
  out.steps_.assign(steps_.begin() + static_cast<ptrdiff_t>(first),
                    steps_.end());
  return out;
}

bool XPath::LiteralEquals(const std::string& a, const std::string& b) {
  return Compare(a, b) == 0;
}

bool XPath::MatchPredicates(const Node& n,
                            const std::vector<Predicate>& preds,
                            size_t position) const {
  for (const auto& p : preds) {
    if (p.is_position) {
      if (position != p.position) return false;
      continue;
    }
    std::string value;
    bool present = false;
    if (p.operand_is_self) {
      value = n.InnerText();
      present = true;
    } else if (p.operand_is_attr) {
      auto a = n.Attr(p.operand);
      present = a.has_value();
      if (present) value = std::string(*a);
    } else {
      const Node* c = n.Child(p.operand);
      present = c != nullptr;
      if (present) {
        value = c->InnerText();
      } else {
        // Lenient fallback: "[id=245]" also matches an *attribute* named
        // id, so the paper's collection identifiers work verbatim.
        auto a = n.Attr(p.operand);
        present = a.has_value();
        if (present) value = std::string(*a);
      }
    }
    if (p.op == CompareOp::kNone) {
      if (!present) return false;
      continue;
    }
    if (!present) return false;
    const int cmp = Compare(value, p.literal);
    switch (p.op) {
      case CompareOp::kEq:
        if (cmp != 0) return false;
        break;
      case CompareOp::kNe:
        if (cmp == 0) return false;
        break;
      case CompareOp::kLt:
        if (cmp >= 0) return false;
        break;
      case CompareOp::kLe:
        if (cmp > 0) return false;
        break;
      case CompareOp::kGt:
        if (cmp <= 0) return false;
        break;
      case CompareOp::kGe:
        if (cmp < 0) return false;
        break;
      case CompareOp::kNone:
        break;
    }
  }
  return true;
}

std::vector<const Node*> XPath::Eval(const Node& root) const {
  std::vector<const Node*> current;
  // Absolute path: the first step matches the root element itself
  // (document-root semantics), or any descendant for '//'. Relative path:
  // the first step matches the root's children (context-node semantics).
  {
    const Step& s0 = steps_[0];
    std::vector<const Node*> candidates;
    if (s0.is_attr) {
      candidates.push_back(&root);
    } else if (s0.descendant) {
      if (s0.name == "*" || root.name() == s0.name) {
        candidates.push_back(&root);
      }
      CollectDescendants(root, s0.name, &candidates);
    } else if (absolute_) {
      if (s0.name == "*" || root.name() == s0.name) {
        candidates.push_back(&root);
      }
    } else {
      for (const Node* c : root.Children(s0.name)) {
        candidates.push_back(c);
      }
    }
    size_t position = 0;
    for (const Node* c : candidates) {
      ++position;
      if (s0.is_attr) {
        if (c->Attr(s0.name).has_value()) current.push_back(c);
      } else if (MatchPredicates(*c, s0.preds, position)) {
        current.push_back(c);
      }
    }
  }
  for (size_t si = 1; si < steps_.size(); ++si) {
    const Step& step = steps_[si];
    std::vector<const Node*> next;
    for (const Node* ctx : current) {
      if (step.is_attr) {
        if (ctx->Attr(step.name).has_value()) next.push_back(ctx);
        continue;
      }
      std::vector<const Node*> candidates;
      if (step.descendant) {
        CollectDescendants(*ctx, step.name, &candidates);
      } else {
        for (const Node* c : ctx->Children(step.name)) {
          candidates.push_back(c);
        }
      }
      size_t position = 0;
      for (const Node* c : candidates) {
        ++position;
        if (MatchPredicates(*c, step.preds, position)) next.push_back(c);
      }
    }
    current = std::move(next);
  }
  return current;
}

std::vector<std::string> XPath::EvalStrings(const Node& root) const {
  std::vector<std::string> out;
  for (const Node* n : Eval(root)) {
    if (selects_attribute()) {
      auto a = n->Attr(steps_.back().name);
      if (a) out.emplace_back(*a);
    } else {
      out.push_back(n->InnerText());
    }
  }
  return out;
}

}  // namespace mqp::xml
