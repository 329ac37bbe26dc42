// XPath-lite: the navigation subset index servers use as collection
// identifiers (paper §3.2, e.g. "(http://10.3.4.5, /data[id=245])") and the
// query engine uses for field references.
//
// Grammar (a pragmatic subset of XPath 1.0):
//
//   path      := ('/' | '//')? step (('/' | '//') step)*
//   step      := ('@' NAME) | NAME | '*'   followed by predicate*
//   predicate := '[' operand (op literal)? ']' | '[' INTEGER ']'
//   operand   := NAME | '@' NAME | '.'
//   op        := '=' | '!=' | '<' | '<=' | '>' | '>='
//   literal   := 'str' | "str" | bare-token
//
// Comparisons are numeric when both sides parse as numbers, else string.
// A bare `[5]` predicate is a 1-based position filter. A child-element
// operand that matches no child element falls back to the attribute of the
// same name, so the paper's collection ids ("/data[id=245]") work verbatim.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xml/node.h"

namespace mqp::xml {

/// \brief A parsed XPath-lite expression. Immutable and reusable.
class XPath {
 public:
  /// Parses `expr`; fails on syntax errors.
  static Result<XPath> Parse(std::string_view expr);

  /// Evaluates against `root`. For an *absolute* path ("/store/data"),
  /// `root` acts as the document root: the first step is matched against
  /// `root` itself. For a *relative* path ("seller/city"), the first step
  /// is matched against `root`'s children (standard context-node
  /// semantics). Returns matching elements (for a final attribute step,
  /// the owning elements).
  std::vector<const Node*> Eval(const Node& root) const;

  /// Like Eval but returns string values: attribute values for a final
  /// `@attr` step, otherwise each element's InnerText().
  std::vector<std::string> EvalStrings(const Node& root) const;

  /// The original expression text.
  const std::string& text() const { return text_; }

  /// True if the final step selects an attribute.
  bool selects_attribute() const;

  // --- step introspection -----------------------------------------------------
  //
  // Used by engine::LocalStore to recognize the paper's collection-id
  // shape ("/data[id=245]", "/data[@id='c0']/cd[price<10]") and answer it
  // from its keyed collection map without materializing a DOM view.

  /// Number of steps.
  size_t StepCount() const { return steps_.size(); }

  /// True if step `i` was reached via '//'.
  bool StepIsDescendant(size_t i) const { return steps_[i].descendant; }

  /// True if step `i` is an '@attr' step.
  bool StepIsAttr(size_t i) const { return steps_[i].is_attr; }

  /// Step `i`'s name ("*" for the wildcard step).
  const std::string& StepName(size_t i) const { return steps_[i].name; }

  /// True if step `i` carries no predicates.
  bool StepHasNoPredicates(size_t i) const { return steps_[i].preds.empty(); }

  /// True if any predicate of step `i` is a positional one ("[2]").
  bool StepHasPositionPredicate(size_t i) const {
    for (const Predicate& p : steps_[i].preds) {
      if (p.is_position) return true;
    }
    return false;
  }

  /// If step `i`'s predicates are exactly one equality test on the
  /// child-or-attribute operand `key`, returns the literal compared
  /// against; nullopt otherwise. `attr_operand` (optional) receives
  /// whether the operand was written '@key' (attribute-only, no
  /// child-element fallback).
  std::optional<std::string> StepKeyEqLiteral(size_t i, std::string_view key,
                                              bool* attr_operand
                                              = nullptr) const;

  /// A new absolute XPath made of the steps from `first` on (text() is
  /// empty — the structural form is the path). Precondition:
  /// first < StepCount().
  XPath SuffixFrom(size_t first) const;

  /// The predicate '=' relation: numeric when both sides parse as
  /// numbers, else exact string comparison. Exposed so callers answering
  /// predicates out-of-band (the store's collection-id match) agree with
  /// Eval byte for byte.
  static bool LiteralEquals(const std::string& a, const std::string& b);

 private:
  enum class CompareOp { kNone, kEq, kNe, kLt, kLe, kGt, kGe };

  struct Predicate {
    bool is_position = false;
    size_t position = 0;           // 1-based
    bool operand_is_attr = false;  // @name vs child element name
    bool operand_is_self = false;  // '.'
    std::string operand;           // element/attribute name
    CompareOp op = CompareOp::kNone;  // kNone => existence test
    std::string literal;
  };

  struct Step {
    bool descendant = false;  // reached via '//'
    bool is_attr = false;     // '@name' step
    std::string name;         // element name or "*"
    std::vector<Predicate> preds;
  };

  XPath() = default;

  bool MatchPredicates(const Node& n, const std::vector<Predicate>& preds,
                       size_t position) const;

  std::string text_;
  bool absolute_ = false;
  std::vector<Step> steps_;
};

}  // namespace mqp::xml
