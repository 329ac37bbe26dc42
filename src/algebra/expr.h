// Scalar/boolean expression trees used in selection predicates, join
// conditions and order keys.
//
// Expressions evaluate against one XML item (for predicates) or two (for
// join conditions, via the `side` of each field reference). Field references
// use XPath-lite paths relative to the item element.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/node.h"

namespace mqp::xml {
class AttrList;
class TokenReader;
class TokenWriter;
}  // namespace mqp::xml

namespace mqp::algebra {

/// Comparison operators. kHasPrefix tests category-path containment: the
/// left value equals the right, or extends it at a '/' boundary
/// ("USA/OR" has-prefix-matches "USA/OR/Portland" but not "USA/ORx").
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kHasPrefix };

std::string_view CompareOpName(CompareOp op);
Result<CompareOp> CompareOpFromName(std::string_view name);

/// \brief A scalar value: a string that compares numerically when both
/// sides parse as numbers (XPath 1.0-style loose typing).
struct Value {
  std::string text;

  /// <0, 0, >0 like strcmp; numeric when both sides are numeric.
  int Compare(const Value& other) const;
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Which input a field reference reads from (join conditions read both).
enum class Side { kLeft, kRight };

/// \brief Immutable expression node.
class Expr {
 public:
  enum class Kind {
    kField,    ///< field reference: XPath-lite path into an item
    kLiteral,  ///< constant
    kCompare,  ///< binary comparison of two scalar expressions
    kAnd,
    kOr,
    kNot,
    kExists,  ///< true iff the field path matches something
  };

  Kind kind() const { return kind_; }

  // --- factories ------------------------------------------------------------
  static ExprPtr Field(std::string path, Side side = Side::kLeft);
  static ExprPtr Literal(std::string value);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr inner);
  static ExprPtr Exists(std::string path, Side side = Side::kLeft);

  // --- evaluation -------------------------------------------------------------

  /// Evaluates a boolean expression over `left` (and `right` for join
  /// conditions; pass nullptr otherwise).
  bool EvalBool(const xml::Node& left, const xml::Node* right = nullptr) const;

  /// Evaluates a scalar (field/literal) expression; nullopt if the field
  /// is absent.
  std::optional<Value> EvalValue(const xml::Node& left,
                                 const xml::Node* right = nullptr) const;

  // --- serialization ----------------------------------------------------------

  /// Emits the expression as an XML element (the plan wire format,
  /// algebra/plan_xml.h) without building a DOM.
  void EmitTokens(xml::TokenWriter* w) const;

  /// Parses an expression element produced by EmitTokens. Precondition:
  /// the reader's current token is the expression element's
  /// kStartElement; returns with its kEndElement consumed.
  static Result<ExprPtr> FromTokens(xml::TokenReader* r);

  /// Pool-sharing variant for callers decoding many expressions (the
  /// plan decoder): `pool` holds one reusable AttrList per recursion
  /// depth and this expression uses slots from `depth` down.
  static Result<ExprPtr> FromTokens(xml::TokenReader* r,
                                    std::deque<xml::AttrList>* pool,
                                    size_t depth);

  /// Human-readable form, e.g. "price < 10".
  std::string ToString() const;

  /// Structural equality.
  bool Equals(const Expr& other) const;

  // --- introspection -----------------------------------------------------------
  const std::string& field_path() const { return text_; }
  const std::string& literal_value() const { return text_; }
  Side side() const { return side_; }
  CompareOp compare_op() const { return op_; }
  const ExprPtr& lhs() const { return children_[0]; }
  const ExprPtr& rhs() const { return children_[1]; }
  const ExprPtr& inner() const { return children_[0]; }
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  /// Single-allocation construction (make_shared); decode hot path.
  /// Non-const so the factories can fill fields before publishing.
  static std::shared_ptr<Expr> New(Kind kind);

  Kind kind_;
  std::string text_;  // field path or literal value
  Side side_ = Side::kLeft;
  CompareOp op_ = CompareOp::kEq;
  std::vector<ExprPtr> children_;
};

// --- convenience builders (quickstart-friendly) -------------------------------

/// price < 10  (numeric-aware)
ExprPtr FieldLess(std::string path, std::string value);
ExprPtr FieldGreater(std::string path, std::string value);
ExprPtr FieldEquals(std::string path, std::string value);

/// left.path == right.path — an equi-join condition.
ExprPtr JoinEq(std::string left_path, std::string right_path);

}  // namespace mqp::algebra
