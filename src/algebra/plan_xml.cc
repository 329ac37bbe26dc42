#include "algebra/plan_xml.h"

#include <deque>
#include <unordered_map>

#include "algebra/walk.h"
#include "common/strings.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"

namespace mqp::algebra {

namespace {

bool IsExprTag(std::string_view tag) {
  return tag == "field" || tag == "literal" || tag == "compare" ||
         tag == "and" || tag == "or-expr" || tag == "not" || tag == "exists";
}

// Annotation child elements that are not operator inputs.
bool IsAnnotationTag(std::string_view tag) { return tag == "histogram"; }

// The distributed top-k bound rides as tk-* attributes (DESIGN.md §10),
// after the other annotation attributes.
void EmitTopKAttrs(const Annotations& a, xml::TokenWriter* w) {
  if (!a.topk) return;
  const TopKBound& t = *a.topk;
  w->Attr("tk-field", t.order_field);
  w->Attr("tk-order", t.ascending ? "asc" : "desc");
  w->Attr("tk-k", t.k);
  if (t.batch != 0) w->Attr("tk-batch", t.batch);
  if (t.cont != 0) w->Attr("tk-cont", t.cont);
  if (t.leaf != 0) w->Attr("tk-leaf", t.leaf);
  if (t.has_bound) {
    // tk-bkey may legitimately be the empty string (a missing order
    // field evaluates to ""), so presence — not non-emptiness — flags
    // the bound.
    w->Attr("tk-bkey", t.bound_key);
    w->Attr("tk-bleaf", t.bound_leaf);
  }
}

// Integer attributes are outside input: a value that is not an integer
// of its field's type (garbage, a negative count, a top-k leaf index past
// uint32_t, a staleness past int) rejects the plan instead of wrapping or
// narrowing into the field. The decoder reads every integer attribute
// through here.
template <typename T>
Status ReadIntAttr(std::string_view tag, std::string_view key,
                   const xml::AttrList& attrs, std::optional<T>* out) {
  const std::string* s = attrs.Find(key);
  if (s == nullptr) return Status::OK();
  T v = 0;
  if (!mqp::ParseInteger(*s, &v)) {
    return Status::ParseError("<" + std::string(tag) + "> has a bad " +
                              std::string(key) + " attribute");
  }
  *out = v;
  return Status::OK();
}

Status ParseTopKAttrs(std::string_view tag, const xml::AttrList& attrs,
                      Annotations* a) {
  const std::string* field = attrs.Find("tk-field");
  if (field == nullptr) return Status::OK();
  TopKBound t;
  t.order_field = *field;
  if (const std::string* s = attrs.Find("tk-order")) {
    t.ascending = *s != "desc";
  }
  std::optional<uint64_t> k, batch, cont;
  std::optional<uint32_t> leaf, bound_leaf;
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-k", attrs, &k));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-batch", attrs, &batch));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-cont", attrs, &cont));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-leaf", attrs, &leaf));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "tk-bleaf", attrs, &bound_leaf));
  t.k = k.value_or(0);
  t.batch = batch.value_or(0);
  t.cont = cont.value_or(0);
  t.leaf = leaf.value_or(0);
  t.bound_leaf = bound_leaf.value_or(0);
  if (const std::string* s = attrs.Find("tk-bkey")) {
    t.has_bound = true;
    t.bound_key = *s;
  }
  a->topk = std::move(t);
  return Status::OK();
}

// The annotation attributes (§5.1, §4.3, DESIGN.md §10) of element <tag>.
Status ParseAnnotationAttrs(std::string_view tag, const xml::AttrList& attrs,
                            Annotations* a) {
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "card", attrs, &a->cardinality));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "bytes", attrs, &a->bytes));
  MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "distinct", attrs, &a->distinct_keys));
  MQP_RETURN_IF_ERROR(
      ReadIntAttr(tag, "staleness", attrs, &a->staleness_minutes));
  return ParseTopKAttrs(tag, attrs, a);
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

// Emits one operator DAG as tokens; shared nodes are written once.
class StreamSerializer {
 public:
  explicit StreamSerializer(xml::TokenWriter* w) : w_(w) {}

  void EmitTree(const PlanNode& root) {
    CountRefs(&root, &refs_);
    Emit(root);
  }

 private:
  void Emit(const PlanNode& node) {
    int& refs = refs_[&node];
    if (refs < 0) {
      w_->Start("ref");
      w_->Attr("id", -refs);
      w_->End();
      return;
    }
    w_->Start(OpTypeName(node.type()));
    if (refs > 1) {
      refs = -next_id_++;
      w_->Attr("node-id", -refs);
    }
    // Union's distinct flag shares the "distinct" attribute with the
    // distinct_keys annotation (the flag wins), emitted in the canonical
    // annotation position so re-encodes are stable.
    const Annotations& a = node.annotations();
    const bool union_distinct =
        node.type() == OpType::kUnion && node.distinct();
    if (a.cardinality) w_->Attr("card", *a.cardinality);
    if (a.bytes) w_->Attr("bytes", *a.bytes);
    if (union_distinct) {
      w_->Attr("distinct", "1");
    } else if (a.distinct_keys) {
      w_->Attr("distinct", *a.distinct_keys);
    }
    if (a.staleness_minutes) {
      w_->Attr("staleness", *a.staleness_minutes);
    }
    EmitTopKAttrs(a, w_);
    switch (node.type()) {
      case OpType::kUrl:
        w_->Attr("href", node.url());
        if (!node.xpath().empty()) w_->Attr("xpath", node.xpath());
        break;
      case OpType::kUrn:
        w_->Attr("name", node.urn());
        if (!node.urn_hint().empty()) w_->Attr("hint", node.urn_hint());
        break;
      case OpType::kProject:
        w_->Attr("fields", mqp::Join(node.fields(), ","));
        break;
      case OpType::kAggregate:
        w_->Attr("func", AggFuncName(node.agg_func()));
        if (!node.agg_field().empty()) w_->Attr("field", node.agg_field());
        if (!node.group_by().empty()) w_->Attr("groupby", node.group_by());
        break;
      case OpType::kTopN:
        if (node.has_limit()) w_->Attr("n", node.limit());
        w_->Attr("orderby", node.order_field());
        w_->Attr("order", node.ascending() ? "asc" : "desc");
        break;
      case OpType::kDisplay:
        w_->Attr("target", node.target());
        break;
      default:
        break;
    }
    for (const auto& h : a.histograms) {
      h.EmitTokens(w_);
    }
    switch (node.type()) {
      case OpType::kXmlData:
        if (!node.verbatim_items().empty()) {
          w_->Raw(node.verbatim_items());
        } else {
          for (const Item& item : node.items()) {
            w_->Write(*item);
          }
        }
        break;
      case OpType::kSelect:
      case OpType::kJoin:
      case OpType::kLeftOuterJoin:
        if (node.expr() != nullptr) node.expr()->EmitTokens(w_);
        break;
      default:
        break;
    }
    for (const auto& c : node.children()) {
      Emit(*c);
    }
    w_->End();
  }

  xml::TokenWriter* w_;
  NodeMarks refs_;  // see CountRefs
  int next_id_ = 1;
};

void EmitPlanTokens(const Plan& plan, xml::TokenWriter* w) {
  w->Start("mqp");
  if (!plan.query_id().empty()) w->Attr("query-id", plan.query_id());
  if (plan.submitted_at() != 0) {
    w->Attr("submitted", mqp::FormatDouble(plan.submitted_at()));
  }
  if (!plan.policy().Empty()) {
    const PlanPolicy& pol = plan.policy();
    w->Start("policy");
    if (pol.time_budget_seconds != 0) {
      w->Attr("time-budget", mqp::FormatDouble(pol.time_budget_seconds));
    }
    if (pol.priority != 0) {
      w->Attr("priority", pol.priority);
    }
    w->Attr("prefer", pol.preference == AnswerPreference::kCurrent
                          ? "current"
                          : "complete");
    for (const auto& s : pol.route_allow) {
      w->Start("route-allow");
      w->Attr("server", s);
      w->End();
    }
    for (const auto& s : pol.route_avoid) {
      w->Start("route-avoid");
      w->Attr("server", s);
      w->End();
    }
    for (const auto& [first, then] : pol.bind_after) {
      w->Start("bind-after");
      w->Attr("first", first);
      w->Attr("then", then);
      w->End();
    }
    w->End();
  }
  if (!plan.provenance().empty()) {
    plan.provenance().EmitTokens(w);
  }
  if (plan.original() != nullptr) {
    w->Start("original");
    StreamSerializer s(w);
    s.EmitTree(*plan.original());
    w->End();
  }
  w->Start("plan");
  if (plan.root() != nullptr) {
    StreamSerializer s(w);
    if (plan.root()->type() == OpType::kDisplay) {
      // display carries the target and one input; the shared-node id
      // space starts below it.
      w->Start("display");
      w->Attr("target", plan.root()->target());
      s.EmitTree(*plan.root()->child(0));
      w->End();
    } else {
      s.EmitTree(*plan.root());
    }
  }
  w->End();  // plan
  w->End();  // mqp
}

// Consumes tokens directly into PlanNodes. A <data> element's canonical
// item run is skipped and kept as bytes (PlanNode::VerbatimData); only a
// rejected run materializes xml::Nodes here.
class StreamDeserializer {
 public:
  /// `buffer` owns `text` when non-null; otherwise the first verbatim
  /// leaf copies `text` into a buffer that all leaves then share.
  StreamDeserializer(xml::TokenReader* r, std::string_view text,
                     std::shared_ptr<const std::string> buffer)
      : r_(r), text_(text), buffer_(std::move(buffer)) {}

  /// Starts a fresh node-id space (each <original>/<plan> section has its
  /// own). The attribute pool is deliberately retained across sections.
  void ResetIds() { by_id_.clear(); }

  // Top-level operator element (display allowed). Precondition: current()
  // is its kStartElement; returns with its kEndElement consumed.
  Result<PlanNodePtr> ParseOp() {
    if (r_->current().name == "display") {
      xml::AttrList& attrs = AttrsAt(0);
      MQP_ASSIGN_OR_RETURN(xml::Token t, r_->ReadAttrs(&attrs));
      std::vector<PlanNodePtr> inputs;
      while (t.type != xml::TokenType::kEndElement) {
        if (t.type == xml::TokenType::kStartElement) {
          MQP_ASSIGN_OR_RETURN(auto input, ParseNode(1));
          inputs.push_back(std::move(input));
        }
        if (!r_->Advance()) return r_->status();
        t = r_->current();
      }
      MQP_RETURN_IF_ERROR(RequireInputs("display", inputs, 1));
      return PlanNode::Display(attrs.Get("target"), std::move(inputs[0]));
    }
    return ParseNode(0);
  }

 private:
  // One reusable attribute list / input vector per recursion depth:
  // parents hold theirs across child parses, children use deeper slots.
  // Deques keep the references stable while the pools grow.
  xml::AttrList& AttrsAt(size_t depth) {
    while (attr_pool_.size() <= depth) attr_pool_.emplace_back();
    return attr_pool_[depth];
  }

  std::vector<PlanNodePtr>& InputsAt(size_t depth) {
    while (input_pool_.size() <= depth) input_pool_.emplace_back();
    input_pool_[depth].clear();
    return input_pool_[depth];
  }

  Status RequireInputs(std::string_view tag,
                       const std::vector<PlanNodePtr>& inputs, size_t n) {
    if (inputs.size() != n) {
      return Status::ParseError("<" + std::string(tag) + "> expects " +
                                std::to_string(n) + " input(s), found " +
                                std::to_string(inputs.size()));
    }
    return Status::OK();
  }

  Result<PlanNodePtr> ParseNode(size_t depth) {
    // Element names are borrowed from the input buffer, so the view
    // survives the child-token walk below.
    const std::string_view tag = r_->current().name;
    xml::AttrList& attrs = AttrsAt(depth);
    MQP_ASSIGN_OR_RETURN(xml::Token t, r_->ReadAttrs(&attrs));
    if (tag == "ref") {
      if (t.type != xml::TokenType::kEndElement) {
        MQP_RETURN_IF_ERROR(r_->SkipToElementEnd());
      }
      const std::string id = attrs.Get("id");
      auto it = by_id_.find(id);
      if (it == by_id_.end()) {
        return Status::ParseError("dangling <ref id=\"" + id + "\"/>");
      }
      return it->second;
    }
    // Child policy: histograms are annotations everywhere; <data> treats
    // every other element child as a verbatim item; select/join parse the
    // first expression child and skip later ones; other operators skip
    // expression children; url/urn ignore children entirely.
    const bool is_data = tag == "data";
    const bool wants_expr =
        tag == "select" || tag == "join" || tag == "leftouterjoin";
    const bool ignores_children = tag == "url" || tag == "urn";
    ExprPtr expr;
    std::vector<FieldHistogram> histograms;
    ItemSet items;
    std::string_view run;  // the canonical item run, when recognized
    size_t run_items = 0;
    std::vector<PlanNodePtr>& inputs = InputsAt(depth);
    while (t.type != xml::TokenType::kEndElement) {
      if (t.type == xml::TokenType::kStartElement) {
        const std::string_view ctag = t.name;
        if (IsAnnotationTag(ctag)) {
          MQP_ASSIGN_OR_RETURN(auto h, FieldHistogram::FromTokens(r_));
          histograms.push_back(std::move(h));
        } else if (is_data) {
          // The first item tries to keep the whole run as bytes (the
          // reader then sits at </data>); a rejected run decodes item by
          // item.
          if (items.empty()) run = r_->SkipCanonicalRun(&run_items);
          if (run.empty()) {
            MQP_ASSIGN_OR_RETURN(auto item, r_->MaterializeSubtree());
            items.push_back(Item(item.release()));
          }
        } else if (IsExprTag(ctag)) {
          if (wants_expr && expr == nullptr) {
            MQP_ASSIGN_OR_RETURN(
                expr, Expr::FromTokens(r_, &attr_pool_, depth + 1));
          } else {
            MQP_RETURN_IF_ERROR(r_->SkipToElementEnd());
          }
        } else if (ignores_children) {
          MQP_RETURN_IF_ERROR(r_->SkipToElementEnd());
        } else {
          MQP_ASSIGN_OR_RETURN(auto input, ParseNode(depth + 1));
          inputs.push_back(std::move(input));
        }
      }
      if (!r_->Advance()) return r_->status();
      t = r_->current();
    }
    PlanNodePtr node;
    if (!run.empty()) {
      node = VerbatimLeaf(run, run_items);
    } else {
      MQP_ASSIGN_OR_RETURN(node, BuildByTag(tag, attrs, std::move(expr),
                                            std::move(items), &inputs));
    }
    if (!histograms.empty()) {
      node->annotations().histograms = std::move(histograms);
    }
    if (!attrs.empty()) {
      MQP_RETURN_IF_ERROR(ParseAnnotationAttrs(
          tag, attrs, &node->annotations()));
      if (const std::string* id = attrs.Find("node-id")) {
        by_id_[*id] = node;
      }
    }
    return node;
  }

  // `inputs` is a pooled per-depth vector: fixed-arity operators move
  // single elements out (the slot keeps its capacity); union/or steal the
  // whole buffer.
  Result<PlanNodePtr> BuildByTag(std::string_view tag,
                                 const xml::AttrList& attrs, ExprPtr expr,
                                 ItemSet items,
                                 std::vector<PlanNodePtr>* inputs) {
    if (tag == "data") {
      return PlanNode::XmlData(std::move(items));
    }
    if (tag == "url") {
      return PlanNode::Url(attrs.Get("href"), attrs.Get("xpath"));
    }
    if (tag == "urn") {
      return PlanNode::UrnRef(attrs.Get("name"), attrs.Get("hint"));
    }
    if (tag == "select") {
      MQP_RETURN_IF_ERROR(RequireExpr(tag, expr));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, *inputs, 1));
      return PlanNode::Select(std::move(expr), std::move((*inputs)[0]));
    }
    if (tag == "project") {
      MQP_RETURN_IF_ERROR(RequireInputs(tag, *inputs, 1));
      return PlanNode::Project(
          mqp::SplitSkipEmpty(attrs.GetView("fields"), ','),
          std::move((*inputs)[0]));
    }
    if (tag == "join" || tag == "leftouterjoin") {
      MQP_RETURN_IF_ERROR(RequireExpr(tag, expr));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, *inputs, 2));
      return tag == "join"
                 ? PlanNode::Join(std::move(expr), std::move((*inputs)[0]),
                                  std::move((*inputs)[1]))
                 : PlanNode::LeftOuterJoin(std::move(expr),
                                           std::move((*inputs)[0]),
                                           std::move((*inputs)[1]));
    }
    if (tag == "union" || tag == "or") {
      if (inputs->empty()) {
        return Status::ParseError("<" + std::string(tag) +
                                  "> needs at least one input");
      }
      return tag == "union"
                 ? PlanNode::Union(std::move(*inputs),
                                   attrs.GetView("distinct") == "1")
                 : PlanNode::Or(std::move(*inputs));
    }
    if (tag == "difference") {
      MQP_RETURN_IF_ERROR(RequireInputs(tag, *inputs, 2));
      return PlanNode::Difference(std::move((*inputs)[0]),
                                  std::move((*inputs)[1]));
    }
    if (tag == "aggregate") {
      MQP_ASSIGN_OR_RETURN(auto func,
                           AggFuncFromName(attrs.GetView("func", "count")));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, *inputs, 1));
      return PlanNode::Aggregate(func, attrs.Get("field"),
                                 attrs.Get("groupby"),
                                 std::move((*inputs)[0]));
    }
    if (tag == "topn") {
      std::optional<uint64_t> limit;
      MQP_RETURN_IF_ERROR(ReadIntAttr(tag, "n", attrs, &limit));
      MQP_RETURN_IF_ERROR(RequireInputs(tag, *inputs, 1));
      return PlanNode::TopN(limit, attrs.Get("orderby"),
                            attrs.GetView("order", "asc") != "desc",
                            std::move((*inputs)[0]));
    }
    return Status::ParseError("unknown operator element <" +
                              std::string(tag) + ">");
  }

  Status RequireExpr(std::string_view tag, const ExprPtr& expr) {
    if (expr == nullptr) {
      return Status::ParseError("<" + std::string(tag) +
                                "> is missing its expression");
    }
    return Status::OK();
  }

  // A leaf over `run` (a view into text_), re-pointed at the same bytes
  // inside the shared buffer.
  PlanNodePtr VerbatimLeaf(std::string_view run, size_t item_count) {
    if (buffer_ == nullptr) {
      buffer_ = std::make_shared<const std::string>(text_);
    }
    const std::string_view shared = std::string_view(*buffer_).substr(
        static_cast<size_t>(run.data() - text_.data()), run.size());
    return PlanNode::VerbatimData(buffer_, shared, item_count);
  }

  xml::TokenReader* r_;
  std::string_view text_;
  std::shared_ptr<const std::string> buffer_;
  std::unordered_map<std::string, PlanNodePtr> by_id_;
  std::deque<xml::AttrList> attr_pool_;
  std::deque<std::vector<PlanNodePtr>> input_pool_;
};

// Parses an <original>/<plan> section: the first element child becomes the
// operator tree, the rest is skipped. Returns null for an empty section.
Result<PlanNodePtr> ParseSection(xml::TokenReader* r, StreamDeserializer* d) {
  xml::AttrList attrs;
  MQP_ASSIGN_OR_RETURN(xml::Token t, r->ReadAttrs(&attrs));
  PlanNodePtr node;
  d->ResetIds();
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      if (node == nullptr) {
        MQP_ASSIGN_OR_RETURN(node, d->ParseOp());
      } else {
        MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
      }
    }
    if (!r->Advance()) return r->status();
    t = r->current();
  }
  return node;
}

Status ParsePolicyTokens(xml::TokenReader* r, PlanPolicy* p) {
  xml::AttrList attrs;
  MQP_ASSIGN_OR_RETURN(xml::Token t, r->ReadAttrs(&attrs));
  if (const std::string* tb = attrs.Find("time-budget")) {
    if (!mqp::ParseDouble(*tb, &p->time_budget_seconds)) {
      return Status::ParseError("bad time-budget");
    }
  }
  if (const std::string* pr = attrs.Find("priority")) {
    if (!mqp::ParseInteger(*pr, &p->priority)) {
      return Status::ParseError("bad priority");
    }
  }
  p->preference = attrs.GetView("prefer", "complete") == "current"
                      ? AnswerPreference::kCurrent
                      : AnswerPreference::kComplete;
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      xml::AttrList child;
      const std::string ctag(t.name);
      MQP_ASSIGN_OR_RETURN(xml::Token ct, r->ReadAttrs(&child));
      if (ctag == "route-allow") {
        p->route_allow.push_back(child.Get("server"));
      } else if (ctag == "route-avoid") {
        p->route_avoid.push_back(child.Get("server"));
      } else if (ctag == "bind-after") {
        p->bind_after.emplace_back(child.Get("first"), child.Get("then"));
      }
      if (ct.type != xml::TokenType::kEndElement) {
        MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
      }
    }
    if (!r->Advance()) return r->status();
    t = r->current();
  }
  return Status::OK();
}

Result<Plan> ParsePlanStreaming(std::string_view text,
                                std::shared_ptr<const std::string> buffer) {
  xml::TokenReader r(text);
  MQP_ASSIGN_OR_RETURN(xml::Token t, r.Next());
  if (t.type == xml::TokenType::kEndOfInput) {
    return Status::ParseError("expected exactly one root element, found 0");
  }
  if (t.name != "mqp") {
    return Status::ParseError("expected <mqp> root, found <" +
                              std::string(t.name) + ">");
  }
  xml::AttrList attrs;
  MQP_ASSIGN_OR_RETURN(t, r.ReadAttrs(&attrs));
  Plan plan;
  plan.set_query_id(attrs.Get("query-id"));
  if (const std::string* s = attrs.Find("submitted")) {
    double ts = 0;
    if (!mqp::ParseDouble(*s, &ts)) {
      return Status::ParseError("bad submitted timestamp");
    }
    plan.set_submitted_at(ts);
  }
  // First occurrence of each section wins; duplicates and unknown
  // elements are skipped.
  bool saw_policy = false, saw_prov = false, saw_orig = false,
       saw_plan = false, plan_has_root = false;
  StreamDeserializer d(&r, text, std::move(buffer));
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      if (t.name == "policy" && !saw_policy) {
        saw_policy = true;
        MQP_RETURN_IF_ERROR(ParsePolicyTokens(&r, &plan.policy()));
      } else if (t.name == "provenance" && !saw_prov) {
        saw_prov = true;
        MQP_ASSIGN_OR_RETURN(auto p, Provenance::FromTokens(&r));
        plan.provenance() = std::move(p);
      } else if (t.name == "original" && !saw_orig) {
        saw_orig = true;
        MQP_ASSIGN_OR_RETURN(auto node, ParseSection(&r, &d));
        if (node != nullptr) plan.set_original(std::move(node));
      } else if (t.name == "plan" && !saw_plan) {
        saw_plan = true;
        MQP_ASSIGN_OR_RETURN(auto node, ParseSection(&r, &d));
        if (node != nullptr) {
          plan_has_root = true;
          plan.set_root(std::move(node));
        }
      } else {
        MQP_RETURN_IF_ERROR(r.SkipToElementEnd());
      }
    }
    if (!r.Advance()) return r.status();
    t = r.current();
  }
  // A plan is one well-formed document: consume to the end, so trailing
  // content is rejected too.
  MQP_ASSIGN_OR_RETURN(t, r.Next());
  if (t.type != xml::TokenType::kEndOfInput) {
    return Status::ParseError("expected exactly one root element, found 2");
  }
  if (!saw_plan) {
    return Status::ParseError("<mqp> is missing its <plan>");
  }
  if (!plan_has_root) {
    return Status::ParseError("<plan> is empty");
  }
  return plan;
}

}  // namespace

std::string SerializePlan(const Plan& plan) {
  std::string out;
  xml::TokenWriter w(&out);
  EmitPlanTokens(plan, &w);
  return out;
}

Result<Plan> ParsePlan(std::string_view text) {
  return ParsePlanStreaming(text, nullptr);
}

Result<Plan> ParsePlan(std::shared_ptr<const std::string> bytes) {
  const std::string_view text = *bytes;
  return ParsePlanStreaming(text, std::move(bytes));
}

size_t PlanWireSize(const Plan& plan) {
  xml::TokenWriter w;
  EmitPlanTokens(plan, &w);
  return w.size();
}

}  // namespace mqp::algebra
