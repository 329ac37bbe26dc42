#include "support/dom_plan_codec.h"

#include <unordered_map>

#include "algebra/walk.h"
#include "common/strings.h"
#include "support/dom_parser.h"
#include "xml/writer.h"

namespace mqp::dom {

namespace {

using algebra::AggFuncFromName;
using algebra::AggFuncName;
using algebra::Annotations;
using algebra::AnswerPreference;
using algebra::ExprPtr;
using algebra::Item;
using algebra::ItemSet;
using algebra::NodeMarks;
using algebra::OpType;
using algebra::Plan;
using algebra::PlanNode;
using algebra::PlanNodePtr;
using algebra::PlanPolicy;
using algebra::TopKBound;

bool IsExprTag(std::string_view tag) {
  return tag == "field" || tag == "literal" || tag == "compare" ||
         tag == "and" || tag == "or-expr" || tag == "not" || tag == "exists";
}

// Annotation child elements that are not operator inputs.
bool IsAnnotationTag(std::string_view tag) { return tag == "histogram"; }

// The distributed top-k bound rides as tk-* attributes, in the same
// canonical position the streaming encoder emits them.
void EmitTopKAttrs(const Annotations& a, xml::Node* out) {
  if (!a.topk) return;
  const TopKBound& t = *a.topk;
  out->SetAttr("tk-field", t.order_field);
  out->SetAttr("tk-order", t.ascending ? "asc" : "desc");
  out->SetAttr("tk-k", std::to_string(t.k));
  if (t.batch != 0) out->SetAttr("tk-batch", std::to_string(t.batch));
  if (t.cont != 0) out->SetAttr("tk-cont", std::to_string(t.cont));
  if (t.leaf != 0) out->SetAttr("tk-leaf", std::to_string(t.leaf));
  if (t.has_bound) {
    out->SetAttr("tk-bkey", t.bound_key);
    out->SetAttr("tk-bleaf", std::to_string(t.bound_leaf));
  }
}

// A value that is not an integer of its field's type rejects the plan.
template <typename T>
Status ReadIntAttr(std::string_view tag, std::string_view key,
                   const xml::Node& elem, std::optional<T>* out) {
  const auto s = elem.Attr(key);
  if (!s) return Status::OK();
  T v = 0;
  if (!mqp::ParseInteger(*s, &v)) {
    return Status::ParseError("<" + std::string(tag) + "> has a bad " +
                              std::string(key) + " attribute");
  }
  *out = v;
  return Status::OK();
}

Status ParseTopKAttrs(std::string_view tag, const xml::Node& elem,
                      Annotations* a) {
  const auto field = elem.Attr("tk-field");
  if (!field) return Status::OK();
  TopKBound t;
  t.order_field = std::string(*field);
  if (const auto s = elem.Attr("tk-order")) t.ascending = *s != "desc";
  std::optional<uint64_t> k, batch, cont;
  std::optional<uint32_t> leaf, bound_leaf;
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-k", elem, &k));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-batch", elem, &batch));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-cont", elem, &cont));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-leaf", elem, &leaf));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-bleaf", elem, &bound_leaf));
  t.k = k.value_or(0);
  t.batch = batch.value_or(0);
  t.cont = cont.value_or(0);
  t.leaf = leaf.value_or(0);
  t.bound_leaf = bound_leaf.value_or(0);
  if (const auto s = elem.Attr("tk-bkey")) {
    t.has_bound = true;
    t.bound_key = std::string(*s);
  }
  a->topk = std::move(t);
  return Status::OK();
}

Status ParseAnnotationAttrs(std::string_view tag, const xml::Node& elem,
                            Annotations* a) {
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "card", elem, &a->cardinality));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "bytes", elem, &a->bytes));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "distinct", elem, &a->distinct_keys));
  MQP_RETURN_IF_ERROR(
      ReadIntAttr(tag, "staleness", elem, &a->staleness_minutes));
  return ParseTopKAttrs(tag, elem, a);
}

// Counts how many times each node is referenced in the DAG. The
// serializer then replaces a shared node's count with its negated id at
// its first emission, so later references find the id in the same slot.
void CountRefs(const PlanNode* node, NodeMarks* refs) {
  if (++(*refs)[node] > 1) return;  // only descend on first visit
  for (const auto& c : node->children()) {
    CountRefs(c.get(), refs);
  }
}

class Serializer {
 public:
  std::unique_ptr<xml::Node> NodeToXml(const PlanNode& node) {
    CountRefs(&node, &refs_);
    return Emit(node);
  }

 private:
  std::unique_ptr<xml::Node> Emit(const PlanNode& node) {
    int& refs = refs_[&node];
    if (refs < 0) {
      auto ref = xml::Node::Element("ref");
      ref->SetAttr("id", std::to_string(-refs));
      return ref;
    }
    auto out = xml::Node::Element(std::string(OpTypeName(node.type())));
    if (refs > 1) {
      refs = -next_id_++;
      out->SetAttr("node-id", std::to_string(-refs));
    }
    // Union's distinct flag shares the "distinct" attribute with the
    // distinct_keys annotation (the flag wins).
    const Annotations& a = node.annotations();
    const bool union_distinct =
        node.type() == OpType::kUnion && node.distinct();
    if (a.cardinality) out->SetAttr("card", std::to_string(*a.cardinality));
    if (a.bytes) out->SetAttr("bytes", std::to_string(*a.bytes));
    if (union_distinct) {
      out->SetAttr("distinct", "1");
    } else if (a.distinct_keys) {
      out->SetAttr("distinct", std::to_string(*a.distinct_keys));
    }
    if (a.staleness_minutes) {
      out->SetAttr("staleness", std::to_string(*a.staleness_minutes));
    }
    EmitTopKAttrs(a, out.get());
    for (const auto& h : a.histograms) {
      out->AddChild(HistogramToXml(h));
    }
    switch (node.type()) {
      case OpType::kXmlData:
        for (const Item& item : node.items()) {
          out->AddChild(item->Clone());
        }
        break;
      case OpType::kUrl:
        out->SetAttr("href", node.url());
        if (!node.xpath().empty()) out->SetAttr("xpath", node.xpath());
        break;
      case OpType::kUrn:
        out->SetAttr("name", node.urn());
        if (!node.urn_hint().empty()) out->SetAttr("hint", node.urn_hint());
        break;
      case OpType::kSelect:
      case OpType::kJoin:
      case OpType::kLeftOuterJoin:
        if (node.expr() != nullptr) out->AddChild(ExprToXml(*node.expr()));
        break;
      case OpType::kProject:
        out->SetAttr("fields", mqp::Join(node.fields(), ","));
        break;
      case OpType::kAggregate:
        out->SetAttr("func", std::string(AggFuncName(node.agg_func())));
        if (!node.agg_field().empty()) {
          out->SetAttr("field", node.agg_field());
        }
        if (!node.group_by().empty()) {
          out->SetAttr("groupby", node.group_by());
        }
        break;
      case OpType::kTopN:
        if (node.has_limit()) out->SetAttr("n", std::to_string(node.limit()));
        out->SetAttr("orderby", node.order_field());
        out->SetAttr("order", node.ascending() ? "asc" : "desc");
        break;
      case OpType::kDisplay:
        out->SetAttr("target", node.target());
        break;
      default:
        break;
    }
    for (const auto& c : node.children()) {
      out->AddChild(Emit(*c));
    }
    return out;
  }

  NodeMarks refs_;  // see CountRefs
  int next_id_ = 1;
};

class Deserializer {
 public:
  Result<PlanNodePtr> Parse(const xml::Node& elem) {
    const std::string& tag = elem.name();
    if (tag == "ref") {
      const std::string id = elem.AttrOr("id", "");
      auto it = by_id_.find(id);
      if (it == by_id_.end()) {
        return Status::ParseError("dangling <ref id=\"" + id + "\"/>");
      }
      return it->second;
    }

    MQP_ASSIGN_OR_RETURN(auto node, ParseByTag(elem));

    Annotations& a = node->annotations();
    MQP_RETURN_IF_ERROR(ParseAnnotationAttrs(tag, elem, &a));
    for (const xml::Node* h : elem.Children("histogram")) {
      MQP_ASSIGN_OR_RETURN(auto hist, HistogramFromXml(*h));
      a.histograms.push_back(std::move(hist));
    }
    if (auto id = elem.Attr("node-id")) {
      by_id_[std::string(*id)] = node;
    }
    return node;
  }

  Result<PlanNodePtr> ParseOp(const xml::Node& elem) {
    if (elem.name() == "display") {
      std::vector<PlanNodePtr> inputs;
      for (const auto& c : elem.children()) {
        if (!c->is_element()) continue;
        MQP_ASSIGN_OR_RETURN(auto input, Parse(*c));
        inputs.push_back(std::move(input));
      }
      MQP_RETURN_IF_ERROR(RequireInputs("display", inputs, 1));
      return PlanNode::Display(elem.AttrOr("target", ""),
                               std::move(inputs[0]));
    }
    return Parse(elem);
  }

 private:
  // Child operator elements (skipping the leading expression, if any).
  Result<std::vector<PlanNodePtr>> ParseInputs(const xml::Node& elem) {
    std::vector<PlanNodePtr> inputs;
    for (const auto& c : elem.children()) {
      if (!c->is_element() || IsExprTag(c->name()) ||
          IsAnnotationTag(c->name())) {
        continue;
      }
      MQP_ASSIGN_OR_RETURN(auto input, Parse(*c));
      inputs.push_back(std::move(input));
    }
    return inputs;
  }

  Result<ExprPtr> ParseExprChild(const xml::Node& elem) {
    for (const auto& c : elem.children()) {
      if (c->is_element() && IsExprTag(c->name())) {
        return ExprFromXml(*c);
      }
    }
    return Status::ParseError("<" + elem.name() +
                              "> is missing its expression");
  }

  Status RequireInputs(const std::string& tag,
                       const std::vector<PlanNodePtr>& inputs, size_t n) {
    if (inputs.size() != n) {
      return Status::ParseError("<" + tag + "> expects " + std::to_string(n) +
                                " input(s), found " +
                                std::to_string(inputs.size()));
    }
    return Status::OK();
  }

  Result<PlanNodePtr> ParseByTag(const xml::Node& elem) {
    const std::string& tag = elem.name();
    if (tag == "data") {
      ItemSet items;
      for (const auto& c : elem.children()) {
        if (c->is_element() && !IsAnnotationTag(c->name())) {
          items.push_back(Item(c->Clone().release()));
        }
      }
      return PlanNode::XmlData(std::move(items));
    }
    if (tag == "url") {
      return PlanNode::Url(elem.AttrOr("href", ""), elem.AttrOr("xpath", ""));
    }
    if (tag == "urn") {
      return PlanNode::UrnRef(elem.AttrOr("name", ""),
                              elem.AttrOr("hint", ""));
    }
    if (tag == "select") {
      MQP_ASSIGN_OR_RETURN(auto expr, ParseExprChild(elem));
      MQP_ASSIGN_OR_RETURN(auto inputs, ParseInputs(elem));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, inputs, 1));
      return PlanNode::Select(std::move(expr), std::move(inputs[0]));
    }
    if (tag == "project") {
      MQP_ASSIGN_OR_RETURN(auto inputs, ParseInputs(elem));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, inputs, 1));
      return PlanNode::Project(
          mqp::SplitSkipEmpty(elem.AttrOr("fields", ""), ','),
          std::move(inputs[0]));
    }
    if (tag == "join" || tag == "leftouterjoin") {
      MQP_ASSIGN_OR_RETURN(auto expr, ParseExprChild(elem));
      MQP_ASSIGN_OR_RETURN(auto inputs, ParseInputs(elem));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, inputs, 2));
      return tag == "join"
                 ? PlanNode::Join(std::move(expr), std::move(inputs[0]),
                                  std::move(inputs[1]))
                 : PlanNode::LeftOuterJoin(std::move(expr),
                                           std::move(inputs[0]),
                                           std::move(inputs[1]));
    }
    if (tag == "union" || tag == "or") {
      MQP_ASSIGN_OR_RETURN(auto inputs, ParseInputs(elem));
      if (inputs.empty()) {
        return Status::ParseError("<" + tag + "> needs at least one input");
      }
      return tag == "union"
                 ? PlanNode::Union(std::move(inputs),
                                   elem.AttrOr("distinct", "") == "1")
                 : PlanNode::Or(std::move(inputs));
    }
    if (tag == "difference") {
      MQP_ASSIGN_OR_RETURN(auto inputs, ParseInputs(elem));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, inputs, 2));
      return PlanNode::Difference(std::move(inputs[0]), std::move(inputs[1]));
    }
    if (tag == "aggregate") {
      MQP_ASSIGN_OR_RETURN(auto func,
                           AggFuncFromName(elem.AttrOr("func", "count")));
      MQP_ASSIGN_OR_RETURN(auto inputs, ParseInputs(elem));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, inputs, 1));
      return PlanNode::Aggregate(func, elem.AttrOr("field", ""),
                                 elem.AttrOr("groupby", ""),
                                 std::move(inputs[0]));
    }
    if (tag == "topn") {
      std::optional<uint64_t> limit;
      MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "n", elem, &limit));
      MQP_ASSIGN_OR_RETURN(auto inputs, ParseInputs(elem));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, inputs, 1));
      return PlanNode::TopN(limit, elem.AttrOr("orderby", ""),
                            elem.AttrOr("order", "asc") != "desc",
                            std::move(inputs[0]));
    }
    return Status::ParseError("unknown operator element <" + tag + ">");
  }

  std::unordered_map<std::string, PlanNodePtr> by_id_;
};

std::unique_ptr<xml::Node> PlanToXml(const Plan& plan) {
  auto root = xml::Node::Element("mqp");
  if (!plan.query_id().empty()) root->SetAttr("query-id", plan.query_id());
  if (plan.submitted_at() != 0) {
    root->SetAttr("submitted", mqp::FormatDouble(plan.submitted_at()));
  }
  if (!plan.policy().Empty()) {
    const PlanPolicy& pol = plan.policy();
    auto p = xml::Node::Element("policy");
    if (pol.time_budget_seconds != 0) {
      p->SetAttr("time-budget", mqp::FormatDouble(pol.time_budget_seconds));
    }
    if (pol.priority != 0) {
      p->SetAttr("priority", std::to_string(pol.priority));
    }
    p->SetAttr("prefer", pol.preference == AnswerPreference::kCurrent
                             ? "current"
                             : "complete");
    for (const auto& s : pol.route_allow) {
      p->AddElement("route-allow")->SetAttr("server", s);
    }
    for (const auto& s : pol.route_avoid) {
      p->AddElement("route-avoid")->SetAttr("server", s);
    }
    for (const auto& [first, then] : pol.bind_after) {
      auto* ba = p->AddElement("bind-after");
      ba->SetAttr("first", first);
      ba->SetAttr("then", then);
    }
    root->AddChild(std::move(p));
  }
  if (!plan.provenance().empty()) {
    root->AddChild(ProvenanceToXml(plan.provenance()));
  }
  if (plan.original() != nullptr) {
    auto orig = xml::Node::Element("original");
    Serializer s;
    orig->AddChild(s.NodeToXml(*plan.original()));
    root->AddChild(std::move(orig));
  }
  auto body = xml::Node::Element("plan");
  if (plan.root() != nullptr) {
    Serializer s;
    if (plan.root()->type() == OpType::kDisplay) {
      // display carries the target and one input.
      auto disp = xml::Node::Element("display");
      disp->SetAttr("target", plan.root()->target());
      disp->AddChild(s.NodeToXml(*plan.root()->child(0)));
      body->AddChild(std::move(disp));
    } else {
      body->AddChild(s.NodeToXml(*plan.root()));
    }
  }
  root->AddChild(std::move(body));
  return root;
}

Result<Plan> PlanFromXml(const xml::Node& root) {
  if (root.name() != "mqp") {
    return Status::ParseError("expected <mqp> root, found <" + root.name() +
                              ">");
  }
  Plan plan;
  plan.set_query_id(root.AttrOr("query-id", ""));
  if (auto s = root.Attr("submitted")) {
    double t = 0;
    if (!mqp::ParseDouble(*s, &t)) {
      return Status::ParseError("bad submitted timestamp");
    }
    plan.set_submitted_at(t);
  }
  if (const xml::Node* pol = root.Child("policy")) {
    PlanPolicy& p = plan.policy();
    if (auto tb = pol->Attr("time-budget")) {
      if (!mqp::ParseDouble(*tb, &p.time_budget_seconds)) {
        return Status::ParseError("bad time-budget");
      }
    }
    if (auto pr = pol->Attr("priority")) {
      if (!mqp::ParseInteger(*pr, &p.priority)) {
        return Status::ParseError("bad priority");
      }
    }
    p.preference = pol->AttrOr("prefer", "complete") == "current"
                       ? AnswerPreference::kCurrent
                       : AnswerPreference::kComplete;
    for (const xml::Node* ra : pol->Children("route-allow")) {
      p.route_allow.push_back(ra->AttrOr("server", ""));
    }
    for (const xml::Node* ra : pol->Children("route-avoid")) {
      p.route_avoid.push_back(ra->AttrOr("server", ""));
    }
    for (const xml::Node* ba : pol->Children("bind-after")) {
      p.bind_after.emplace_back(ba->AttrOr("first", ""),
                                ba->AttrOr("then", ""));
    }
  }
  if (const xml::Node* prov = root.Child("provenance")) {
    MQP_ASSIGN_OR_RETURN(auto p, ProvenanceFromXml(*prov));
    plan.provenance() = std::move(p);
  }
  if (const xml::Node* orig = root.Child("original")) {
    Deserializer d;
    for (const auto& c : orig->children()) {
      if (c->is_element()) {
        MQP_ASSIGN_OR_RETURN(auto node, d.ParseOp(*c));
        plan.set_original(std::move(node));
        break;
      }
    }
  }
  const xml::Node* body = root.Child("plan");
  if (body == nullptr) {
    return Status::ParseError("<mqp> is missing its <plan>");
  }
  Deserializer d;
  for (const auto& c : body->children()) {
    if (c->is_element()) {
      MQP_ASSIGN_OR_RETURN(auto node, d.ParseOp(*c));
      plan.set_root(std::move(node));
      return plan;
    }
  }
  return Status::ParseError("<plan> is empty");
}

}  // namespace

std::string SerializePlan(const Plan& plan) {
  return xml::Serialize(*PlanToXml(plan));
}

Result<Plan> ParsePlan(std::string_view text) {
  MQP_ASSIGN_OR_RETURN(auto doc, xml::Parse(text));
  return PlanFromXml(*doc);
}

size_t PlanWireSize(const Plan& plan) {
  return xml::SerializedSize(*PlanToXml(plan));
}

}  // namespace mqp::dom
