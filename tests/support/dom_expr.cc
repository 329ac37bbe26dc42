#include "algebra/expr.h"
#include "support/dom_plan_codec.h"

namespace mqp::dom {

using algebra::CompareOp;
using algebra::Expr;
using algebra::ExprPtr;
using algebra::Side;

std::unique_ptr<xml::Node> ExprToXml(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kField: {
      auto n = xml::Node::Element("field");
      n->SetAttr("path", expr.field_path());
      if (expr.side() == Side::kRight) n->SetAttr("side", "right");
      return n;
    }
    case Expr::Kind::kLiteral: {
      auto n = xml::Node::Element("literal");
      n->SetAttr("value", expr.literal_value());
      return n;
    }
    case Expr::Kind::kCompare: {
      auto n = xml::Node::Element("compare");
      n->SetAttr("op", std::string(algebra::CompareOpName(expr.compare_op())));
      n->AddChild(ExprToXml(*expr.lhs()));
      n->AddChild(ExprToXml(*expr.rhs()));
      return n;
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      auto n = xml::Node::Element(expr.kind() == Expr::Kind::kAnd ? "and"
                                                                  : "or-expr");
      n->AddChild(ExprToXml(*expr.lhs()));
      n->AddChild(ExprToXml(*expr.rhs()));
      return n;
    }
    case Expr::Kind::kNot: {
      auto n = xml::Node::Element("not");
      n->AddChild(ExprToXml(*expr.inner()));
      return n;
    }
    case Expr::Kind::kExists: {
      auto n = xml::Node::Element("exists");
      n->SetAttr("path", expr.field_path());
      if (expr.side() == Side::kRight) n->SetAttr("side", "right");
      return n;
    }
  }
  return xml::Node::Element("invalid");
}

Result<ExprPtr> ExprFromXml(const xml::Node& node) {
  const std::string& tag = node.name();
  auto parse_child = [&](size_t i) -> Result<ExprPtr> {
    size_t seen = 0;
    for (const auto& c : node.children()) {
      if (!c->is_element()) continue;
      if (seen == i) return ExprFromXml(*c);
      ++seen;
    }
    return Status::ParseError("expression <" + tag + "> missing operand " +
                              std::to_string(i));
  };
  if (tag == "field") {
    return Expr::Field(node.AttrOr("path", ""),
                       node.AttrOr("side", "left") == "right" ? Side::kRight
                                                              : Side::kLeft);
  }
  if (tag == "literal") {
    return Expr::Literal(node.AttrOr("value", ""));
  }
  if (tag == "compare") {
    MQP_ASSIGN_OR_RETURN(auto op,
                         algebra::CompareOpFromName(node.AttrOr("op", "")));
    MQP_ASSIGN_OR_RETURN(auto lhs, parse_child(0));
    MQP_ASSIGN_OR_RETURN(auto rhs, parse_child(1));
    return Expr::Compare(op, std::move(lhs), std::move(rhs));
  }
  if (tag == "and" || tag == "or-expr") {
    MQP_ASSIGN_OR_RETURN(auto lhs, parse_child(0));
    MQP_ASSIGN_OR_RETURN(auto rhs, parse_child(1));
    return tag == "and" ? Expr::And(std::move(lhs), std::move(rhs))
                        : Expr::Or(std::move(lhs), std::move(rhs));
  }
  if (tag == "not") {
    MQP_ASSIGN_OR_RETURN(auto inner, parse_child(0));
    return Expr::Not(std::move(inner));
  }
  if (tag == "exists") {
    return Expr::Exists(node.AttrOr("path", ""),
                        node.AttrOr("side", "left") == "right" ? Side::kRight
                                                               : Side::kLeft);
  }
  return Status::ParseError("unknown expression element <" + tag + ">");
}

}  // namespace mqp::dom
