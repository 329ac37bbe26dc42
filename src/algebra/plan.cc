#include "algebra/plan.h"

#include <algorithm>
#include <atomic>

#include "algebra/walk.h"
#include "common/strings.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"

namespace mqp::algebra {

uint64_t PlanNode::NextStamp() {
  // Process-global, monotonic: a stamp value is never reused, so address
  // reuse after node destruction cannot make a mutated graph fingerprint
  // like its predecessor.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Item MakeItem(const xml::Node& node) {
  return Item(node.Clone().release());
}

std::string_view OpTypeName(OpType t) {
  switch (t) {
    case OpType::kXmlData:
      return "data";
    case OpType::kUrl:
      return "url";
    case OpType::kUrn:
      return "urn";
    case OpType::kSelect:
      return "select";
    case OpType::kProject:
      return "project";
    case OpType::kJoin:
      return "join";
    case OpType::kLeftOuterJoin:
      return "leftouterjoin";
    case OpType::kUnion:
      return "union";
    case OpType::kOr:
      return "or";
    case OpType::kDifference:
      return "difference";
    case OpType::kAggregate:
      return "aggregate";
    case OpType::kTopN:
      return "topn";
    case OpType::kDisplay:
      return "display";
  }
  return "?";
}

std::string_view AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "count";
}

Result<AggFunc> AggFuncFromName(std::string_view name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  if (name == "avg") return AggFunc::kAvg;
  return Status::ParseError("unknown aggregate function '" +
                            std::string(name) + "'");
}

PlanNodePtr PlanNode::New(OpType type) {
  // Local class: inherits this member function's access to the private
  // constructor, letting make_shared fuse the node and its control block
  // into one allocation.
  struct Mk : PlanNode {
    explicit Mk(OpType t) : PlanNode(t) {}
  };
  return std::make_shared<Mk>(type);
}

PlanNodePtr PlanNode::XmlData(ItemSet items) {
  auto n = New(OpType::kXmlData);
  n->items_ = std::move(items);
  return n;
}

PlanNodePtr PlanNode::VerbatimData(std::shared_ptr<const std::string> buffer,
                                   std::string_view run, size_t item_count) {
  auto n = New(OpType::kXmlData);
  n->verbatim_buffer_ = std::move(buffer);
  n->verbatim_ = run;
  n->verbatim_count_ = item_count;
  return n;
}

bool PlanNode::IsFoldableUnion() const {
  if (type_ != OpType::kUnion || distinct_ || annotations_.topk) return false;
  return std::any_of(children_.begin(), children_.end(),
                     [](const PlanNodePtr& c) {
                       return c->IsConstant() && !c->verbatim_.empty();
                     });
}

void PlanNode::FoldUnion(const std::vector<ItemSet>& evaluated) {
  auto buffer = std::make_shared<std::string>();
  xml::TokenWriter w(buffer.get());
  size_t count = 0;
  for (size_t i = 0; i < children_.size(); ++i) {
    const PlanNode& c = *children_[i];
    if (!c.verbatim_.empty()) {
      w.Raw(c.verbatim_);
      count += c.verbatim_count_;
      continue;
    }
    const ItemSet& items = c.IsConstant() ? c.items_ : evaluated[i];
    for (const Item& item : items) w.Write(*item);
    count += items.size();
  }
  MorphToData({});
  annotations_.cardinality = count;
  verbatim_ = *buffer;
  verbatim_buffer_ = std::move(buffer);
  verbatim_count_ = count;
}

void PlanNode::BuildVerbatimItems() const {
  // The run passed CanonicalRunEnd or was written by FoldUnion, so it
  // tokenizes cleanly: a sequence of top-level elements, each one item.
  xml::TokenReader r(verbatim_);
  while (r.Advance() &&
         r.current().type == xml::TokenType::kStartElement) {
    auto item = r.MaterializeSubtree();
    if (!item.ok()) break;
    items_.push_back(Item(std::move(item).value().release()));
  }
}

PlanNodePtr PlanNode::Url(std::string url, std::string xpath) {
  auto n = New(OpType::kUrl);
  n->str_ = std::move(url);
  n->str2_ = std::move(xpath);
  return n;
}

PlanNodePtr PlanNode::UrnRef(std::string urn, std::string hint) {
  auto n = New(OpType::kUrn);
  n->str_ = std::move(urn);
  n->str2_ = std::move(hint);
  return n;
}

PlanNodePtr PlanNode::Select(ExprPtr predicate, PlanNodePtr input) {
  auto n = New(OpType::kSelect);
  n->expr_ = std::move(predicate);
  n->children_ = {std::move(input)};
  return n;
}

PlanNodePtr PlanNode::Project(std::vector<std::string> fields,
                              PlanNodePtr input) {
  auto n = New(OpType::kProject);
  n->fields_ = std::move(fields);
  n->children_ = {std::move(input)};
  return n;
}

PlanNodePtr PlanNode::Join(ExprPtr condition, PlanNodePtr left,
                           PlanNodePtr right) {
  auto n = New(OpType::kJoin);
  n->expr_ = std::move(condition);
  n->children_ = {std::move(left), std::move(right)};
  return n;
}

PlanNodePtr PlanNode::LeftOuterJoin(ExprPtr condition, PlanNodePtr left,
                                    PlanNodePtr right) {
  auto n = New(OpType::kLeftOuterJoin);
  n->expr_ = std::move(condition);
  n->children_ = {std::move(left), std::move(right)};
  return n;
}

PlanNodePtr PlanNode::Union(std::vector<PlanNodePtr> inputs,
                            bool distinct) {
  auto n = New(OpType::kUnion);
  n->children_ = std::move(inputs);
  n->distinct_ = distinct;
  return n;
}

PlanNodePtr PlanNode::Or(std::vector<PlanNodePtr> alternatives) {
  auto n = New(OpType::kOr);
  n->children_ = std::move(alternatives);
  return n;
}

PlanNodePtr PlanNode::Difference(PlanNodePtr left, PlanNodePtr right) {
  auto n = New(OpType::kDifference);
  n->children_ = {std::move(left), std::move(right)};
  return n;
}

PlanNodePtr PlanNode::Aggregate(AggFunc func, std::string field,
                                std::string group_by, PlanNodePtr input) {
  auto n = New(OpType::kAggregate);
  n->agg_func_ = func;
  n->str_ = std::move(field);
  n->str2_ = std::move(group_by);
  n->children_ = {std::move(input)};
  return n;
}

PlanNodePtr PlanNode::TopN(std::optional<uint64_t> limit,
                           std::string order_field, bool ascending,
                           PlanNodePtr input) {
  auto n = New(OpType::kTopN);
  n->has_limit_ = limit.has_value();
  n->limit_ = limit.value_or(0);
  n->str_ = std::move(order_field);
  n->ascending_ = ascending;
  n->children_ = {std::move(input)};
  return n;
}

PlanNodePtr PlanNode::Display(std::string target, PlanNodePtr input) {
  auto n = New(OpType::kDisplay);
  n->str_ = std::move(target);
  n->children_ = {std::move(input)};
  return n;
}

PlanNodePtr PlanNode::CloneInternal(
    std::vector<std::pair<const PlanNode*, PlanNodePtr>>* memo) const {
  for (const auto& [orig, copy] : *memo) {
    if (orig == this) return copy;
  }
  auto n = New(type_);
  n->items_ = items_;  // items are immutable shared_ptrs: shallow copy OK
  n->verbatim_buffer_ = verbatim_buffer_;
  n->verbatim_ = verbatim_;
  n->verbatim_count_ = verbatim_count_;
  n->str_ = str_;
  n->str2_ = str2_;
  n->expr_ = expr_;  // expressions immutable
  n->fields_ = fields_;
  n->agg_func_ = agg_func_;
  n->limit_ = limit_;
  n->has_limit_ = has_limit_;
  n->ascending_ = ascending_;
  n->distinct_ = distinct_;
  n->annotations_ = annotations_;
  memo->emplace_back(this, n);
  n->children_.reserve(children_.size());
  for (const auto& c : children_) {
    n->children_.push_back(c->CloneInternal(memo));
  }
  return n;
}

PlanNodePtr PlanNode::Clone() const {
  std::vector<std::pair<const PlanNode*, PlanNodePtr>> memo;
  return CloneInternal(&memo);
}

void PlanNode::MorphToData(ItemSet items) {
  Touch();
  const auto staleness = annotations_.staleness_minutes;
  type_ = OpType::kXmlData;
  items_ = std::move(items);
  DropVerbatim();
  children_.clear();
  str_.clear();
  str2_.clear();
  expr_.reset();
  fields_.clear();
  annotations_ = Annotations{};
  annotations_.staleness_minutes = staleness;
  annotations_.cardinality = items_.size();
}

void PlanNode::MorphTo(const PlanNode& other) {
  Touch();
  PlanNodePtr copy = other.Clone();
  type_ = copy->type_;
  copy->items();  // build them: this node takes the items, not the bytes
  items_ = std::move(copy->items_);
  DropVerbatim();
  children_ = std::move(copy->children_);
  str_ = std::move(copy->str_);
  str2_ = std::move(copy->str2_);
  expr_ = std::move(copy->expr_);
  fields_ = std::move(copy->fields_);
  agg_func_ = copy->agg_func_;
  limit_ = copy->limit_;
  has_limit_ = copy->has_limit_;
  ascending_ = copy->ascending_;
  distinct_ = copy->distinct_;
  annotations_ = copy->annotations_;
}

std::vector<const PlanNode*> PlanNode::UrnLeaves() const {
  std::vector<const PlanNode*> out;
  ForEachNode(this, [&out](const PlanNode* n) {
    if (n->type() == OpType::kUrn) out.push_back(n);
  });
  return out;
}

bool PlanNode::Equals(const PlanNode& other, bool compare_annotations) const {
  if (type_ != other.type_ || str_ != other.str_ || str2_ != other.str2_ ||
      fields_ != other.fields_ || agg_func_ != other.agg_func_ ||
      limit_ != other.limit_ || has_limit_ != other.has_limit_ ||
      ascending_ != other.ascending_ ||
      distinct_ != other.distinct_ ||
      children_.size() != other.children_.size() ||
      items().size() != other.items().size()) {
    return false;
  }
  if (compare_annotations && !(annotations_ == other.annotations_)) {
    return false;
  }
  if ((expr_ == nullptr) != (other.expr_ == nullptr)) return false;
  if (expr_ != nullptr && !expr_->Equals(*other.expr_)) return false;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (!items_[i]->Equals(*other.items_[i])) return false;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i], compare_annotations)) {
      return false;
    }
  }
  return true;
}

std::string PlanNode::Summary() const {
  switch (type_) {
    case OpType::kXmlData:
      return "data[" + std::to_string(items().size()) + " items]";
    case OpType::kUrl:
      return "url(" + str_ + (str2_.empty() ? "" : ", " + str2_) + ")";
    case OpType::kUrn:
      return "urn(" + str_ + ")";
    case OpType::kSelect:
      return "select(" + (expr_ ? expr_->ToString() : "?") + ")";
    case OpType::kProject:
      return "project(" + mqp::Join(fields_, ",") + ")";
    case OpType::kJoin:
      return "join(" + (expr_ ? expr_->ToString() : "?") + ")";
    case OpType::kLeftOuterJoin:
      return "left-outer-join(" + (expr_ ? expr_->ToString() : "?") + ")";
    case OpType::kUnion:
      return "union";
    case OpType::kOr:
      return "or";
    case OpType::kDifference:
      return "difference";
    case OpType::kAggregate:
      return std::string(AggFuncName(agg_func_)) + "(" + str_ + ")" +
             (str2_.empty() ? "" : " group by " + str2_);
    case OpType::kTopN:
      return (has_limit_ ? "top" + std::to_string(limit_) : "sort") +
             " by " + str_ + (ascending_ ? " asc" : " desc");
    case OpType::kDisplay:
      return "display(target=" + str_ + ")";
  }
  return "?";
}

std::string PlanNode::ToDebugString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Summary();
  out += '\n';
  for (const auto& c : children_) {
    out += c->ToDebugString(indent + 1);
  }
  return out;
}

std::string Plan::target() const {
  if (root_ != nullptr && root_->type() == OpType::kDisplay) {
    return root_->target();
  }
  return "";
}

void Plan::SnapshotOriginal() {
  if (root_ != nullptr) original_ = root_->Clone();
}

bool Plan::IsFullyEvaluated() const {
  if (root_ == nullptr) return false;
  const PlanNode* n = root_.get();
  if (n->type() == OpType::kDisplay) {
    if (n->children().empty()) return false;
    n = n->child(0).get();
  }
  return n->IsConstant();
}

Result<ItemSet> Plan::ResultItems() const {
  if (!IsFullyEvaluated()) {
    return Status::InvalidArgument("plan is not fully evaluated");
  }
  const PlanNode* n = root_.get();
  if (n->type() == OpType::kDisplay) n = n->child(0).get();
  return n->items();
}

namespace {

// The conservative partial-collection walk behind Plan::PartialItems.
// Only operators whose pending siblings cannot invalidate already-
// reduced data pass items through; everything else yields nothing.
void CollectPartial(const PlanNode& n, ItemSet* out) {
  switch (n.type()) {
    case OpType::kXmlData:
      out->insert(out->end(), n.items().begin(), n.items().end());
      return;
    case OpType::kDisplay:
      if (!n.children().empty()) CollectPartial(*n.child(0), out);
      return;
    case OpType::kUnion:
      // Bag union: every input contributes independently, so whatever
      // has reduced is final regardless of the stragglers.
      for (const auto& c : n.children()) CollectPartial(*c, out);
      return;
    case OpType::kOr:
      // Conjoint union (§4.2): any one input suffices, and mixing two
      // alternatives would double-count — take the first constant one.
      for (const auto& c : n.children()) {
        if (c->IsConstant()) {
          out->insert(out->end(), c->items().begin(), c->items().end());
          return;
        }
      }
      return;
    default:
      // A pending Select/Join/Aggregate/... could still reject or
      // reshape anything beneath it: claim nothing.
      return;
  }
}

}  // namespace

ItemSet Plan::PartialItems() const {
  ItemSet out;
  if (root_ != nullptr) CollectPartial(*root_, &out);
  return out;
}

namespace {

// FNV-1a style mixer; collisions only risk a stale cache, and stamps are
// globally unique, so a collision needs two distinct DAG states hashing
// identically across a 64-bit space.
struct Mixer {
  uint64_t h = 1469598103934665603ull;
  void Mix(uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

void MixNodes(const PlanNode* node, NodeMarks* seen, Mixer* m) {
  if (!seen->Insert(node)) {
    m->Mix(0x9e3779b97f4a7c15ull);  // shared-reference marker
    return;
  }
  m->Mix(node->stamp());
  m->Mix(node->children().size());
  for (const auto& c : node->children()) {
    MixNodes(c.get(), seen, m);
  }
}

}  // namespace

uint64_t Plan::StructuralFingerprint() const {
  Mixer m;
  const std::hash<std::string> hash_str;
  NodeMarks seen;
  if (root_ != nullptr) MixNodes(root_.get(), &seen, &m);
  m.Mix(0xfeedfacecafebeefull);
  if (original_ != nullptr) MixNodes(original_.get(), &seen, &m);
  // Provenance and policy are hashed by *content*, not just length:
  // both have public mutable accessors, so an in-place edit (same entry
  // count) must still invalidate the cache.
  m.Mix(provenance_.size());
  for (const auto& e : provenance_.entries()) {
    m.Mix(hash_str(e.server));
    m.Mix(hash_str(e.detail));
    m.Mix(static_cast<uint64_t>(e.action));
    m.Mix(static_cast<uint64_t>(e.staleness_minutes));
  }
  m.Mix(policy_.route_allow.size());
  for (const auto& s : policy_.route_allow) m.Mix(hash_str(s));
  m.Mix(policy_.bind_after.size());
  for (const auto& [first, then] : policy_.bind_after) {
    m.Mix(hash_str(first));
    m.Mix(hash_str(then));
  }
  m.Mix(static_cast<uint64_t>(policy_.preference));
  uint64_t budget_bits = 0;
  static_assert(sizeof(budget_bits) == sizeof(policy_.time_budget_seconds));
  __builtin_memcpy(&budget_bits, &policy_.time_budget_seconds,
                   sizeof(budget_bits));
  m.Mix(budget_bits);
  m.Mix(std::hash<std::string>{}(query_id_));
  uint64_t submitted_bits = 0;
  __builtin_memcpy(&submitted_bits, &submitted_at_, sizeof(submitted_bits));
  m.Mix(submitted_bits);
  return m.h;
}

Plan Plan::Clone() const {
  Plan p;
  if (root_ != nullptr) p.root_ = root_->Clone();
  if (original_ != nullptr) p.original_ = original_->Clone();
  p.provenance_ = provenance_;
  p.policy_ = policy_;
  p.query_id_ = query_id_;
  p.submitted_at_ = submitted_at_;
  return p;
}

}  // namespace mqp::algebra
