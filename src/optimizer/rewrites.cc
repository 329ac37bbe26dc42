#include "optimizer/rewrites.h"

#include <algorithm>
#include <utility>

#include "algebra/walk.h"

namespace mqp::optimizer {

using algebra::Expr;
using algebra::ExprPtr;
using algebra::ForEachNodePostOrder;
using algebra::OpType;
using algebra::PlanNode;
using algebra::PlanNodePtr;
using algebra::Side;

int PushSelectThroughUnion(PlanNode* root) {
  int count = 0;
  ForEachNodePostOrder(root, [&count](PlanNode* node) {
    // Repeat locally until fixpoint: a pushed select can expose another.
    while (node->type() == OpType::kSelect &&
           !node->children().empty() &&
           (node->child(0)->type() == OpType::kUnion ||
            node->child(0)->type() == OpType::kOr)) {
      const PlanNodePtr& u = node->child(0);
      std::vector<PlanNodePtr> pushed;
      pushed.reserve(u->children().size());
      for (const auto& c : u->children()) {
        pushed.push_back(PlanNode::Select(node->expr(), c));
      }
      PlanNodePtr replacement =
          u->type() == OpType::kUnion
              ? PlanNode::Union(std::move(pushed), u->distinct())
              : PlanNode::Or(std::move(pushed));
      replacement->annotations() = u->annotations();
      node->MorphTo(*replacement);
      ++count;
      // After the morph, `node` is a union/or of selects; recurse into the
      // new selects for nested unions.
      for (const auto& c : node->children()) {
        count += PushSelectThroughUnion(c.get());
      }
      break;
    }
  });
  return count;
}

int MaxStalenessMinutes(const PlanNode& node) {
  int max = node.annotations().staleness_minutes.value_or(0);
  for (const auto& c : node.children()) {
    max = std::max(max, MaxStalenessMinutes(*c));
  }
  return max;
}

size_t ChooseOrBranch(const PlanNode& or_node, const Locality& locality,
                      const CostModel& cost, OrPreference pref) {
  const auto& alts = or_node.children();
  if (alts.size() <= 1) return 0;
  size_t best = 0;
  auto bytes_of = [&](size_t i) { return cost.Estimate(*alts[i]).bytes; };
  switch (pref) {
    case OrPreference::kCheapest: {
      for (size_t i = 1; i < alts.size(); ++i) {
        if (bytes_of(i) < bytes_of(best)) best = i;
      }
      return best;
    }
    case OrPreference::kPreferLocal: {
      auto rank = [&](size_t i) {
        return IsLocallyEvaluable(*alts[i], locality) ? 0 : 1;
      };
      for (size_t i = 1; i < alts.size(); ++i) {
        if (rank(i) < rank(best) ||
            (rank(i) == rank(best) && bytes_of(i) < bytes_of(best))) {
          best = i;
        }
      }
      return best;
    }
    case OrPreference::kPreferCurrent: {
      auto staleness = [&](size_t i) { return MaxStalenessMinutes(*alts[i]); };
      for (size_t i = 1; i < alts.size(); ++i) {
        if (staleness(i) < staleness(best) ||
            (staleness(i) == staleness(best) &&
             bytes_of(i) < bytes_of(best))) {
          best = i;
        }
      }
      return best;
    }
    case OrPreference::kPreferComplete: {
      // More sources under the branch = the broader answer (e.g. R ∪ S
      // over R alone in §4.3's binding); ties go to the fresher branch.
      auto leaves = [&](size_t i) {
        size_t sources = alts[i]->IsConstant() ? 1 : 0;
        algebra::ForEachNode(alts[i].get(), [&](const PlanNode* n) {
          if (n->type() == OpType::kUrl || n->type() == OpType::kUrn) {
            ++sources;
          }
        });
        return sources;
      };
      auto staleness = [&](size_t i) { return MaxStalenessMinutes(*alts[i]); };
      for (size_t i = 1; i < alts.size(); ++i) {
        if (leaves(i) > leaves(best) ||
            (leaves(i) == leaves(best) &&
             staleness(i) < staleness(best)) ||
            (leaves(i) == leaves(best) &&
             staleness(i) == staleness(best) &&
             bytes_of(i) < bytes_of(best))) {
          best = i;
        }
      }
      return best;
    }
  }
  return best;
}

int EliminateOrNodes(PlanNode* root, const Locality& locality,
                     const CostModel& cost, OrPreference pref) {
  int count = 0;
  ForEachNodePostOrder(root, [&](PlanNode* node) {
    if (node->type() != OpType::kOr) return;
    const size_t pick = ChooseOrBranch(*node, locality, cost, pref);
    node->MorphTo(*node->child(pick));
    ++count;
  });
  return count;
}

bool NodeProvidesField(const PlanNode& node, const std::string& path,
                       const Locality& locality) {
  switch (node.type()) {
    case OpType::kXmlData: {
      if (node.items().empty()) return false;
      // Probe: every item must carry the field.
      auto field = Expr::Field(path);
      for (const auto& item : node.items()) {
        if (!field->EvalValue(*item)) return false;
      }
      return true;
    }
    case OpType::kUrl:
      return locality.is_local_url(node) &&
             locality.url_provides_field(node, path);
    case OpType::kSelect:
    case OpType::kTopN:
    case OpType::kDisplay:
      return NodeProvidesField(*node.child(0), path, locality);
    case OpType::kProject: {
      const auto& fs = node.fields();
      if (std::find(fs.begin(), fs.end(), path) == fs.end()) return false;
      return NodeProvidesField(*node.child(0), path, locality);
    }
    case OpType::kJoin:
      return NodeProvidesField(*node.child(0), path, locality) ||
             NodeProvidesField(*node.child(1), path, locality);
    case OpType::kLeftOuterJoin:
      // Only the left side's fields are guaranteed on every output item.
      return NodeProvidesField(*node.child(0), path, locality);
    case OpType::kUnion:
    case OpType::kOr: {
      if (node.children().empty()) return false;
      for (const auto& c : node.children()) {
        if (!NodeProvidesField(*c, path, locality)) return false;
      }
      return true;
    }
    default:
      return false;  // URNs/aggregates: unknown, be conservative
  }
}

namespace {

// Collects the field paths an expression reads from `side`.
void CollectFields(const Expr& e, Side side, std::vector<std::string>* out) {
  switch (e.kind()) {
    case Expr::Kind::kField:
    case Expr::Kind::kExists:
      if (e.side() == side) out->push_back(e.field_path());
      break;
    default:
      for (const auto& c : e.children()) {
        CollectFields(*c, side, out);
      }
  }
}

// Matches join2(join1(A, X), B) with A, B evaluable and X not, where
// join2's left fields are provided by A. On success performs the reorder
// join1'(join2'(A, B), X).
bool TryReorderJoin(PlanNode* join2, const Locality& locality,
                    const CostModel* absorption_cost) {
  if (join2->type() != OpType::kJoin) return false;
  const PlanNodePtr& inner = join2->child(0);
  const PlanNodePtr& b = join2->child(1);
  if (inner->type() != OpType::kJoin) return false;
  const PlanNodePtr& a = inner->child(0);
  const PlanNodePtr& x = inner->child(1);
  if (!IsLocallyEvaluable(*a, locality) ||
      !IsLocallyEvaluable(*b, locality) ||
      IsLocallyEvaluable(*x, locality) ||
      IsLocallyEvaluable(*inner, locality)) {
    return false;
  }
  // Soundness: join2's left-side fields must come from A, not X.
  if (join2->expr() != nullptr) {
    std::vector<std::string> left_fields;
    CollectFields(*join2->expr(), Side::kLeft, &left_fields);
    for (const auto& f : left_fields) {
      if (!NodeProvidesField(*a, f, locality)) return false;
    }
  }
  // Absorption gate: only rewrite when |A ⋈ B| <= |A|.
  if (absorption_cost != nullptr) {
    PlanNodePtr probe = PlanNode::Join(join2->expr(), a, b);
    const double ab_rows = absorption_cost->Estimate(*probe).rows;
    const double a_rows = absorption_cost->Estimate(*a).rows;
    if (ab_rows > a_rows) return false;
  }
  ExprPtr c1 = inner->expr();
  ExprPtr c2 = join2->expr();
  PlanNodePtr rewritten =
      PlanNode::Join(c1, PlanNode::Join(c2, a, b), x);
  join2->MorphTo(*rewritten);
  return true;
}

int ReorderAll(PlanNode* root, const Locality& locality,
               const CostModel* absorption_cost) {
  int count = 0;
  ForEachNodePostOrder(root, [&](PlanNode* node) {
    if (TryReorderJoin(node, locality, absorption_cost)) ++count;
  });
  return count;
}

}  // namespace

int ConsolidateJoins(PlanNode* root, const Locality& locality) {
  return ReorderAll(root, locality, nullptr);
}

int SplitDifferenceOverUnion(PlanNode* root, const Locality& locality) {
  int count = 0;
  ForEachNodePostOrder(root, [&](PlanNode* node) {
    if (node->type() != OpType::kDifference) return;
    const PlanNodePtr& subtrahend = node->child(1);
    if (subtrahend->type() != OpType::kUnion ||
        subtrahend->children().size() < 2 || subtrahend->distinct()) {
      return;
    }
    // Only worthwhile when at least one branch can be subtracted here.
    bool any_local = false;
    for (const auto& b : subtrahend->children()) {
      if (IsLocallyEvaluable(*b, locality)) {
        any_local = true;
        break;
      }
    }
    if (!any_local) return;
    // E − (b1 ∪ b2 ∪ ...) → ((E − blocal) − b2) − ... with locally
    // evaluable branches first.
    std::vector<PlanNodePtr> branches = subtrahend->children();
    std::stable_sort(branches.begin(), branches.end(),
                     [&](const PlanNodePtr& a, const PlanNodePtr& b) {
                       return IsLocallyEvaluable(*a, locality) &&
                              !IsLocallyEvaluable(*b, locality);
                     });
    PlanNodePtr acc = node->child(0);
    for (const auto& b : branches) {
      acc = PlanNode::Difference(acc, b);
    }
    node->MorphTo(*acc);
    ++count;
  });
  return count;
}

int ApplyAbsorption(PlanNode* root, const Locality& locality,
                    const CostModel& cost) {
  return ReorderAll(root, locality, &cost);
}

namespace {

bool g_use_distributed_topk = true;

/// A remote single-server unit: a sub-plan one non-local peer can answer
/// as a whole — no routing pseudo-operators, no unresolved names, every
/// URL leaf on the same server, and that server is not us.
bool IsRemoteSingleServerUnit(const PlanNode& node, const Locality& locality,
                              std::string* server) {
  if (node.type() == OpType::kDisplay || node.type() == OpType::kUrn ||
      node.type() == OpType::kOr) {
    return false;
  }
  if (node.type() == OpType::kUrl) {
    if (locality.is_local_url(node)) return false;
    if (server->empty()) {
      *server = node.url();
    } else if (*server != node.url()) {
      return false;
    }
    return true;
  }
  for (const auto& c : node.children()) {
    if (!IsRemoteSingleServerUnit(*c, locality, server)) return false;
  }
  return true;
}

int StampTopK(PlanNode* node, const algebra::TopKBound& bound,
              const Locality& locality) {
  // Descend through non-distinct unions only: each branch keeps its own
  // full contribution under concatenating union, so per-branch bounds
  // are sound; a distinct union could need more than k rows per branch.
  // Such a union is bounded itself: wherever it is evaluated it keeps
  // its top k rows instead of folding every row it carries.
  int count = 0;
  if (node->type() == OpType::kUnion && !node->distinct()) {
    for (const auto& c : node->children()) {
      count += StampTopK(c.get(), bound, locality);
    }
  } else {
    if (node->type() == OpType::kXmlData) return 0;  // preloaded at the heap
    std::string server;
    if (!IsRemoteSingleServerUnit(*node, locality, &server) ||
        server.empty()) {
      return 0;
    }
  }
  // Const read first: the mutating annotations() accessor bumps the
  // node's stamp, which would invalidate the wire cache on every hop.
  if (std::as_const(*node).annotations().topk == bound) return count;
  node->annotations().topk = bound;
  return count + 1;
}

}  // namespace

void set_use_distributed_topk(bool on) { g_use_distributed_topk = on; }
bool use_distributed_topk() { return g_use_distributed_topk; }

int PushTopKBounds(PlanNode* root, const Locality& locality) {
  if (!g_use_distributed_topk) return 0;
  int count = 0;
  ForEachNodePostOrder(root, [&](PlanNode* node) {
    if (node->type() != OpType::kTopN || !node->has_limit() ||
        node->limit() == 0 || node->order_field().empty() ||
        node->children().empty()) {
      return;
    }
    algebra::TopKBound bound;
    bound.order_field = node->order_field();
    bound.ascending = node->ascending();
    bound.k = node->limit();
    count += StampTopK(node->child(0).get(), bound, locality);
  });
  return count;
}

}  // namespace mqp::optimizer
