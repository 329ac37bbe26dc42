#include "algebra/expr.h"

#include <deque>

#include "common/strings.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"
#include "xml/xpath.h"

namespace mqp::algebra {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "eq";
    case CompareOp::kNe:
      return "ne";
    case CompareOp::kLt:
      return "lt";
    case CompareOp::kLe:
      return "le";
    case CompareOp::kGt:
      return "gt";
    case CompareOp::kGe:
      return "ge";
    case CompareOp::kHasPrefix:
      return "prefix";
  }
  return "eq";
}

Result<CompareOp> CompareOpFromName(std::string_view name) {
  if (name == "eq") return CompareOp::kEq;
  if (name == "ne") return CompareOp::kNe;
  if (name == "lt") return CompareOp::kLt;
  if (name == "le") return CompareOp::kLe;
  if (name == "gt") return CompareOp::kGt;
  if (name == "ge") return CompareOp::kGe;
  if (name == "prefix") return CompareOp::kHasPrefix;
  return Status::ParseError("unknown comparison op '" + std::string(name) +
                            "'");
}

int Value::Compare(const Value& other) const {
  return mqp::CompareNumericAware(text, other.text);
}

std::shared_ptr<Expr> Expr::New(Kind kind) {
  // Local class: inherits this member function's access to the private
  // constructor, letting make_shared fuse the node and its control block
  // into one allocation.
  struct Mk : Expr {
    explicit Mk(Kind k) : Expr(k) {}
  };
  return std::make_shared<Mk>(kind);
}

ExprPtr Expr::Field(std::string path, Side side) {
  auto e = New(Kind::kField);
  e->text_ = std::move(path);
  e->side_ = side;
  return e;
}

ExprPtr Expr::Literal(std::string value) {
  auto e = New(Kind::kLiteral);
  e->text_ = std::move(value);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = New(Kind::kCompare);
  e->op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = New(Kind::kAnd);
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = New(Kind::kOr);
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  auto e = New(Kind::kNot);
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::Exists(std::string path, Side side) {
  auto e = New(Kind::kExists);
  e->text_ = std::move(path);
  e->side_ = side;
  return e;
}

namespace {
// Resolves a field path against an item; returns first match's text.
std::optional<std::string> LookupField(const std::string& path,
                                       const xml::Node& item) {
  // Fast path: single child element name.
  if (path.find('/') == std::string::npos &&
      path.find('[') == std::string::npos &&
      path.find('@') == std::string::npos) {
    const xml::Node* c = item.Child(path);
    if (c != nullptr) return c->InnerText();
    return std::nullopt;
  }
  auto xp = xml::XPath::Parse(path);
  if (!xp.ok()) return std::nullopt;
  auto values = xp->EvalStrings(item);
  if (values.empty()) return std::nullopt;
  return values.front();
}
}  // namespace

std::optional<Value> Expr::EvalValue(const xml::Node& left,
                                     const xml::Node* right) const {
  switch (kind_) {
    case Kind::kLiteral:
      return Value{text_};
    case Kind::kField: {
      const xml::Node* item = (side_ == Side::kLeft) ? &left : right;
      if (item == nullptr) return std::nullopt;
      auto v = LookupField(text_, *item);
      if (!v) return std::nullopt;
      return Value{std::move(*v)};
    }
    default:
      // Boolean expressions evaluated as scalars yield "true"/"false".
      return Value{EvalBool(left, right) ? "true" : "false"};
  }
}

bool Expr::EvalBool(const xml::Node& left, const xml::Node* right) const {
  switch (kind_) {
    case Kind::kCompare: {
      auto a = children_[0]->EvalValue(left, right);
      auto b = children_[1]->EvalValue(left, right);
      if (!a || !b) return false;  // missing field: predicate fails
      if (op_ == CompareOp::kHasPrefix) {
        // rhs is the category path; lhs the item's (deeper) coordinate.
        const std::string& prefix = b->text;
        const std::string& value = a->text;
        if (prefix.empty()) return true;  // top category covers all
        if (value.size() < prefix.size() ||
            value.compare(0, prefix.size(), prefix) != 0) {
          return false;
        }
        return value.size() == prefix.size() ||
               value[prefix.size()] == '/';
      }
      const int cmp = a->Compare(*b);
      switch (op_) {
        case CompareOp::kEq:
          return cmp == 0;
        case CompareOp::kNe:
          return cmp != 0;
        case CompareOp::kLt:
          return cmp < 0;
        case CompareOp::kLe:
          return cmp <= 0;
        case CompareOp::kGt:
          return cmp > 0;
        case CompareOp::kGe:
          return cmp >= 0;
        case CompareOp::kHasPrefix:
          break;  // handled above
      }
      return false;
    }
    case Kind::kAnd:
      return children_[0]->EvalBool(left, right) &&
             children_[1]->EvalBool(left, right);
    case Kind::kOr:
      return children_[0]->EvalBool(left, right) ||
             children_[1]->EvalBool(left, right);
    case Kind::kNot:
      return !children_[0]->EvalBool(left, right);
    case Kind::kExists: {
      const xml::Node* item = (side_ == Side::kLeft) ? &left : right;
      if (item == nullptr) return false;
      return LookupField(text_, *item).has_value();
    }
    case Kind::kField:
    case Kind::kLiteral: {
      auto v = EvalValue(left, right);
      return v && !v->text.empty() && v->text != "false" && v->text != "0";
    }
  }
  return false;
}

void Expr::EmitTokens(xml::TokenWriter* w) const {
  switch (kind_) {
    case Kind::kField:
      w->Start("field");
      w->Attr("path", text_);
      if (side_ == Side::kRight) w->Attr("side", "right");
      break;
    case Kind::kLiteral:
      w->Start("literal");
      w->Attr("value", text_);
      break;
    case Kind::kCompare:
      w->Start("compare");
      w->Attr("op", CompareOpName(op_));
      children_[0]->EmitTokens(w);
      children_[1]->EmitTokens(w);
      break;
    case Kind::kAnd:
    case Kind::kOr:
      w->Start(kind_ == Kind::kAnd ? "and" : "or-expr");
      children_[0]->EmitTokens(w);
      children_[1]->EmitTokens(w);
      break;
    case Kind::kNot:
      w->Start("not");
      children_[0]->EmitTokens(w);
      break;
    case Kind::kExists:
      w->Start("exists");
      w->Attr("path", text_);
      if (side_ == Side::kRight) w->Attr("side", "right");
      break;
  }
  w->End();
}

namespace {

// Recursive worker with a depth-indexed AttrList pool: expression trees
// decode without per-node attribute allocations. Deque keeps parents'
// references stable while the pool grows.
Result<ExprPtr> ExprFromTokensAt(xml::TokenReader* r,
                                 std::deque<xml::AttrList>* pool,
                                 size_t depth) {
  // Element names are borrowed from the input buffer; the view survives
  // the child-token walk.
  const std::string_view tag = r->current().name;
  // Arity by tag: how many leading element children are operands. Any
  // further element children are skipped unparsed.
  size_t arity = 0;
  if (tag == "compare" || tag == "and" || tag == "or-expr") {
    arity = 2;
  } else if (tag == "not") {
    arity = 1;
  } else if (tag != "field" && tag != "literal" && tag != "exists") {
    MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
    return Status::ParseError("unknown expression element <" +
                              std::string(tag) + ">");
  }
  while (pool->size() <= depth) pool->emplace_back();
  xml::AttrList& attrs = (*pool)[depth];
  MQP_ASSIGN_OR_RETURN(xml::Token t, r->ReadAttrs(&attrs));
  // At most two operands — no vector.
  ExprPtr operands[2];
  size_t count = 0;
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      if (count < arity) {
        MQP_ASSIGN_OR_RETURN(operands[count],
                             ExprFromTokensAt(r, pool, depth + 1));
        ++count;
      } else {
        MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
      }
    }
    if (!r->Advance()) return r->status();
    t = r->current();
  }
  if (count < arity) {
    return Status::ParseError("expression <" + std::string(tag) +
                              "> missing operand " + std::to_string(count));
  }
  if (tag == "field") {
    return Expr::Field(attrs.Get("path"),
                       attrs.GetView("side", "left") == "right"
                           ? Side::kRight
                           : Side::kLeft);
  }
  if (tag == "literal") return Expr::Literal(attrs.Get("value"));
  if (tag == "exists") {
    return Expr::Exists(attrs.Get("path"),
                        attrs.GetView("side", "left") == "right"
                            ? Side::kRight
                            : Side::kLeft);
  }
  if (tag == "compare") {
    MQP_ASSIGN_OR_RETURN(auto op, CompareOpFromName(attrs.GetView("op")));
    return Expr::Compare(op, std::move(operands[0]), std::move(operands[1]));
  }
  if (tag == "and") {
    return Expr::And(std::move(operands[0]), std::move(operands[1]));
  }
  if (tag == "or-expr") {
    return Expr::Or(std::move(operands[0]), std::move(operands[1]));
  }
  return Expr::Not(std::move(operands[0]));
}

}  // namespace

Result<ExprPtr> Expr::FromTokens(xml::TokenReader* r) {
  std::deque<xml::AttrList> pool;
  return ExprFromTokensAt(r, &pool, 0);
}

Result<ExprPtr> Expr::FromTokens(xml::TokenReader* r,
                                 std::deque<xml::AttrList>* pool,
                                 size_t depth) {
  return ExprFromTokensAt(r, pool, depth);
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kField:
      return (side_ == Side::kRight ? "right." : "") + text_;
    case Kind::kLiteral:
      return "'" + text_ + "'";
    case Kind::kCompare: {
      const char* sym = "=";
      switch (op_) {
        case CompareOp::kEq:
          sym = "=";
          break;
        case CompareOp::kNe:
          sym = "!=";
          break;
        case CompareOp::kLt:
          sym = "<";
          break;
        case CompareOp::kLe:
          sym = "<=";
          break;
        case CompareOp::kGt:
          sym = ">";
          break;
        case CompareOp::kGe:
          sym = ">=";
          break;
        case CompareOp::kHasPrefix:
          sym = "within";
          break;
      }
      return children_[0]->ToString() + " " + sym + " " +
             children_[1]->ToString();
    }
    case Kind::kAnd:
      return "(" + children_[0]->ToString() + " AND " +
             children_[1]->ToString() + ")";
    case Kind::kOr:
      return "(" + children_[0]->ToString() + " OR " +
             children_[1]->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + children_[0]->ToString() + ")";
    case Kind::kExists:
      return "EXISTS(" + text_ + ")";
  }
  return "?";
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_ || text_ != other.text_ || side_ != other.side_ ||
      op_ != other.op_ || children_.size() != other.children_.size()) {
    return false;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

ExprPtr FieldLess(std::string path, std::string value) {
  return Expr::Compare(CompareOp::kLt, Expr::Field(std::move(path)),
                       Expr::Literal(std::move(value)));
}

ExprPtr FieldGreater(std::string path, std::string value) {
  return Expr::Compare(CompareOp::kGt, Expr::Field(std::move(path)),
                       Expr::Literal(std::move(value)));
}

ExprPtr FieldEquals(std::string path, std::string value) {
  return Expr::Compare(CompareOp::kEq, Expr::Field(std::move(path)),
                       Expr::Literal(std::move(value)));
}

ExprPtr JoinEq(std::string left_path, std::string right_path) {
  return Expr::Compare(CompareOp::kEq,
                       Expr::Field(std::move(left_path), Side::kLeft),
                       Expr::Field(std::move(right_path), Side::kRight));
}

}  // namespace mqp::algebra
