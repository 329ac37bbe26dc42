#include "optimizer/cost.h"

#include <algorithm>

#include "common/strings.h"

#include "xml/writer.h"

namespace mqp::optimizer {

using algebra::Expr;
using algebra::OpType;
using algebra::PlanNode;

double CostModel::Selectivity(const Expr& pred) const {
  switch (pred.kind()) {
    case Expr::Kind::kCompare:
      switch (pred.compare_op()) {
        case algebra::CompareOp::kEq:
          return params_.eq_selectivity;
        case algebra::CompareOp::kNe:
          return params_.ne_selectivity;
        default:
          return params_.range_selectivity;
      }
    case Expr::Kind::kAnd:
      return Selectivity(*pred.lhs()) * Selectivity(*pred.rhs());
    case Expr::Kind::kOr: {
      const double a = Selectivity(*pred.lhs());
      const double b = Selectivity(*pred.rhs());
      return std::min(1.0, a + b - a * b);
    }
    case Expr::Kind::kNot:
      return 1.0 - Selectivity(*pred.inner());
    case Expr::Kind::kExists:
      return 0.9;
    default:
      return 0.5;
  }
}

double CostModel::SelectivityWith(
    const Expr& pred, const algebra::Annotations& annotations) const {
  switch (pred.kind()) {
    case Expr::Kind::kCompare: {
      // field OP literal with a matching histogram?
      const Expr* field = nullptr;
      const Expr* literal = nullptr;
      bool field_left = true;
      if (pred.lhs()->kind() == Expr::Kind::kField &&
          pred.rhs()->kind() == Expr::Kind::kLiteral) {
        field = pred.lhs().get();
        literal = pred.rhs().get();
      } else if (pred.rhs()->kind() == Expr::Kind::kField &&
                 pred.lhs()->kind() == Expr::Kind::kLiteral) {
        field = pred.rhs().get();
        literal = pred.lhs().get();
        field_left = false;
      }
      if (field != nullptr) {
        const algebra::FieldHistogram* h =
            annotations.HistogramFor(field->field_path());
        double v = 0;
        if (h != nullptr &&
            mqp::ParseDouble(literal->literal_value(), &v)) {
          // Normalize to "field OP v".
          algebra::CompareOp op = pred.compare_op();
          if (!field_left) {
            switch (op) {
              case algebra::CompareOp::kLt:
                op = algebra::CompareOp::kGt;
                break;
              case algebra::CompareOp::kLe:
                op = algebra::CompareOp::kGe;
                break;
              case algebra::CompareOp::kGt:
                op = algebra::CompareOp::kLt;
                break;
              case algebra::CompareOp::kGe:
                op = algebra::CompareOp::kLe;
                break;
              default:
                break;
            }
          }
          switch (op) {
            case algebra::CompareOp::kLt:
              return h->FractionBelow(v);
            case algebra::CompareOp::kLe:
              return h->FractionBelow(v) + h->FractionEquals(v);
            case algebra::CompareOp::kGt:
              return 1.0 - h->FractionBelow(v) - h->FractionEquals(v);
            case algebra::CompareOp::kGe:
              return 1.0 - h->FractionBelow(v);
            case algebra::CompareOp::kEq:
              return h->FractionEquals(v);
            case algebra::CompareOp::kNe:
              return 1.0 - h->FractionEquals(v);
            default:
              break;
          }
        }
      }
      return Selectivity(pred);
    }
    case Expr::Kind::kAnd:
      return SelectivityWith(*pred.lhs(), annotations) *
             SelectivityWith(*pred.rhs(), annotations);
    case Expr::Kind::kOr: {
      const double a = SelectivityWith(*pred.lhs(), annotations);
      const double b = SelectivityWith(*pred.rhs(), annotations);
      return std::min(1.0, a + b - a * b);
    }
    case Expr::Kind::kNot:
      return 1.0 - SelectivityWith(*pred.inner(), annotations);
    default:
      return Selectivity(pred);
  }
}

CostEstimate CostModel::Estimate(const PlanNode& node) const {
  const algebra::Annotations& a = node.annotations();
  switch (node.type()) {
    case OpType::kXmlData: {
      CostEstimate est;
      est.rows = static_cast<double>(node.item_count());
      if (!node.verbatim_items().empty()) {
        // A canonical run is its items' serialization: price the bytes
        // without building the items.
        est.bytes = static_cast<double>(node.verbatim_items().size());
        return est;
      }
      double bytes = 0;
      for (const auto& item : node.items()) {
        bytes += static_cast<double>(xml::SerializedSize(*item));
      }
      est.bytes = bytes;
      return est;
    }
    case OpType::kUrl:
    case OpType::kUrn: {
      CostEstimate est;
      est.rows = a.cardinality ? static_cast<double>(*a.cardinality)
                               : params_.default_leaf_rows;
      est.bytes = a.bytes ? static_cast<double>(*a.bytes)
                          : est.rows * params_.avg_item_bytes;
      return est;
    }
    case OpType::kSelect: {
      CostEstimate in = Estimate(*node.child(0));
      const double sel =
          node.expr() != nullptr
              ? SelectivityWith(*node.expr(), node.child(0)->annotations())
              : 1.0;
      return {in.rows * sel, in.bytes * sel};
    }
    case OpType::kProject: {
      CostEstimate in = Estimate(*node.child(0));
      // Projection keeps a fraction of each item's fields.
      return {in.rows, in.bytes * 0.5};
    }
    case OpType::kJoin:
    case OpType::kLeftOuterJoin: {
      CostEstimate l = Estimate(*node.child(0));
      CostEstimate r = Estimate(*node.child(1));
      // Prefer distinct-key annotations (§5.1) when available on either
      // side: |L ⋈ R| ≈ |L|·|R| / max(d_L, d_R).
      double rows;
      const auto& la = node.child(0)->annotations();
      const auto& ra = node.child(1)->annotations();
      double distinct = 0;
      if (la.distinct_keys) {
        distinct = std::max(distinct, static_cast<double>(*la.distinct_keys));
      }
      if (ra.distinct_keys) {
        distinct = std::max(distinct, static_cast<double>(*ra.distinct_keys));
      }
      if (distinct > 0) {
        rows = l.rows * r.rows / distinct;
      } else {
        rows = l.rows * r.rows * params_.join_selectivity;
      }
      if (node.type() == OpType::kLeftOuterJoin) {
        rows = std::max(rows, l.rows);  // every left row survives
      }
      const double lw = l.rows > 0 ? l.bytes / l.rows : params_.avg_item_bytes;
      const double rw = r.rows > 0 ? r.bytes / r.rows : params_.avg_item_bytes;
      return {rows, rows * (lw + rw)};
    }
    case OpType::kUnion: {
      CostEstimate est;
      for (const auto& c : node.children()) {
        CostEstimate in = Estimate(*c);
        est.rows += in.rows;
        est.bytes += in.bytes;
      }
      return est;
    }
    case OpType::kOr: {
      // Any single alternative suffices; assume the cheapest is chosen.
      CostEstimate best{0, 0};
      bool first = true;
      for (const auto& c : node.children()) {
        CostEstimate in = Estimate(*c);
        if (first || in.bytes < best.bytes) {
          best = in;
          first = false;
        }
      }
      return best;
    }
    case OpType::kDifference: {
      CostEstimate l = Estimate(*node.child(0));
      return {l.rows * 0.5, l.bytes * 0.5};
    }
    case OpType::kAggregate: {
      CostEstimate in = Estimate(*node.child(0));
      const double groups =
          node.group_by().empty()
              ? 1.0
              : std::max(1.0, in.rows * params_.groups_fraction);
      return {groups, groups * 48.0};
    }
    case OpType::kTopN: {
      CostEstimate in = Estimate(*node.child(0));
      const double rows =
          node.has_limit()
              ? std::min(in.rows, static_cast<double>(node.limit()))
              : in.rows;
      const double w = in.rows > 0 ? in.bytes / in.rows
                                   : params_.avg_item_bytes;
      return {rows, rows * w};
    }
    case OpType::kDisplay:
      return Estimate(*node.child(0));
  }
  return {};
}

}  // namespace mqp::optimizer
