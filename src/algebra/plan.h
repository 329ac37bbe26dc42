// Mutant Query Plan representation (paper §2).
//
// A plan is a DAG of operator nodes whose leaves are verbatim XML data,
// URLs, or abstract resource names (URNs). The plan carries a target (where
// to deliver the final result), optional provenance, and optionally a copy
// of the original query (§5.1). Plans mutate as servers resolve leaves and
// reduce evaluable sub-plans to constant data.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/expr.h"
#include "algebra/histogram.h"
#include "algebra/provenance.h"
#include "common/result.h"
#include "xml/node.h"

namespace mqp::algebra {

// Item / ItemSet are defined in algebra/histogram.h.

/// Deep-copies an xml::Node into an Item.
Item MakeItem(const xml::Node& node);

/// Operator vocabulary.
enum class OpType {
  // Leaves.
  kXmlData,     ///< verbatim XML data (a constant)
  kUrl,         ///< resource location (host:port + XPath collection id)
  kUrn,         ///< abstract resource name
  // Relational operators.
  kSelect,      ///< filter by predicate
  kProject,     ///< keep a subset of child fields
  kJoin,        ///< theta/equi join, merging matched items
  kLeftOuterJoin,  ///< join keeping unmatched left items (§2's A ⟖ B)
  kUnion,       ///< bag union of n inputs
  kOr,          ///< conjoint union: any one input suffices (§4.2)
  kDifference,  ///< bag difference (2 inputs)
  kAggregate,   ///< count/sum/min/max/avg, optional group-by
  kTopN,        ///< order by a field, keep n
  // Pseudo-operators.
  kDisplay,     ///< tags the plan's target (§2, Figure 3)
};

std::string_view OpTypeName(OpType t);

/// Aggregate functions for kAggregate.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

std::string_view AggFuncName(AggFunc f);
Result<AggFunc> AggFuncFromName(std::string_view name);

/// \brief A distributed top-k bound riding on a remote sub-plan
/// (ROADMAP item 2, ADiT-style threshold termination): the consumer's
/// order spec and k, the per-request batch window into the holder's
/// score-sorted stream, and — once the consumer's heap is full — the
/// current k-th entry, against which the holder prunes rows that can no
/// longer win. `leaf` is the sub-plan's position in the consumer's
/// union order; with `bound_leaf` it makes the tie-break on equal keys
/// exact (the consumer's heap breaks ties by arrival order, which is
/// (leaf, within-leaf sequence)). Bounds only ever tighten, so a holder
/// may prune rows failing the bound permanently.
struct TopKBound {
  std::string order_field;
  bool ascending = true;
  uint64_t k = 0;
  uint64_t batch = 0;      ///< max rows in this reply; 0 = everything
  uint64_t cont = 0;       ///< continuation: rows already shipped
  uint32_t leaf = 0;       ///< this sub-plan's leaf index at the consumer
  bool has_bound = false;  ///< k-th entry known (consumer heap full)
  std::string bound_key;   ///< k-th entry's order key (raw bytes)
  uint32_t bound_leaf = 0; ///< k-th entry's leaf index
  bool operator==(const TopKBound&) const = default;
};

/// \brief Optional statistics a server may attach to a node instead of
/// evaluating it (paper §5.1 "accumulating catalog and statistics
/// information"), plus the currency bound of §4.3.
struct Annotations {
  std::optional<uint64_t> cardinality;   ///< number of items
  std::optional<uint64_t> bytes;         ///< serialized size of the data
  std::optional<uint64_t> distinct_keys; ///< distinct join-key values
  std::optional<int> staleness_minutes;  ///< data may be this many minutes old
  std::vector<FieldHistogram> histograms;  ///< per-field distributions
  std::optional<TopKBound> topk;  ///< distributed top-k bound (ROADMAP 2)

  /// The histogram for `field`, or nullptr.
  const FieldHistogram* HistogramFor(std::string_view field) const {
    for (const auto& h : histograms) {
      if (h.field == field) return &h;
    }
    return nullptr;
  }

  bool Empty() const {
    return !cardinality && !bytes && !distinct_keys &&
           !staleness_minutes && histograms.empty() && !topk;
  }
  bool operator==(const Annotations&) const = default;
};

class PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// \brief One operator node in an MQP graph. Nodes are mutable (plans
/// mutate); sharing is allowed (DAG), and serialization preserves it.
class PlanNode {
 public:
  // --- leaf factories ---------------------------------------------------------
  static PlanNodePtr XmlData(ItemSet items);

  /// A kXmlData leaf decoded from the wire whose items are still the
  /// canonical bytes they arrived as (xml::CanonicalRunEnd): `run`, a
  /// non-empty view into `*buffer`, which the node keeps alive, holding
  /// `item_count` items (the recognizer's count). The items are built on
  /// first read; until a mutation they re-encode as `run`.
  static PlanNodePtr VerbatimData(std::shared_ptr<const std::string> buffer,
                                  std::string_view run, size_t item_count);

  static PlanNodePtr Url(std::string url, std::string xpath = "");

  /// `hint` optionally names a server known to be able to resolve the URN
  /// (used when a catalog binds a request to an *index-level* source: the
  /// MQP must travel there to be bound further, paper §4.2 Example 2).
  static PlanNodePtr UrnRef(std::string urn, std::string hint = "");

  // --- operator factories -----------------------------------------------------
  static PlanNodePtr Select(ExprPtr predicate, PlanNodePtr input);
  static PlanNodePtr Project(std::vector<std::string> fields,
                             PlanNodePtr input);
  static PlanNodePtr Join(ExprPtr condition, PlanNodePtr left,
                          PlanNodePtr right);

  /// Left outer join: matched items merge as in Join; unmatched left
  /// items pass through unchanged (the paper's §2 rewrite keeps all of A
  /// while attaching B's fields where they exist).
  static PlanNodePtr LeftOuterJoin(ExprPtr condition, PlanNodePtr left,
                                   PlanNodePtr right);

  /// Bag union by default; `distinct` deduplicates structurally equal
  /// items (used for replica unions, where R ∪ S would otherwise return
  /// every replicated item twice).
  static PlanNodePtr Union(std::vector<PlanNodePtr> inputs,
                           bool distinct = false);
  static PlanNodePtr Or(std::vector<PlanNodePtr> alternatives);
  static PlanNodePtr Difference(PlanNodePtr left, PlanNodePtr right);
  static PlanNodePtr Aggregate(AggFunc func, std::string field,
                               std::string group_by, PlanNodePtr input);
  /// Order by `order_field`, keep the best `n` — or, with nullopt, keep
  /// everything (a pure ORDER BY). Unboundedness is explicit state, not a
  /// sentinel value: bounds ship over the wire for distributed top-k, so
  /// "very large n" must stay distinguishable from "no n at all".
  static PlanNodePtr TopN(std::optional<uint64_t> n, std::string order_field,
                          bool ascending, PlanNodePtr input);
  static PlanNodePtr Display(std::string target, PlanNodePtr input);

  OpType type() const { return type_; }
  bool is_leaf() const {
    return type_ == OpType::kXmlData || type_ == OpType::kUrl ||
           type_ == OpType::kUrn;
  }

  // --- children ---------------------------------------------------------------
  const std::vector<PlanNodePtr>& children() const { return children_; }
  std::vector<PlanNodePtr>& mutable_children() {
    Touch();
    return children_;
  }
  const PlanNodePtr& child(size_t i) const { return children_[i]; }

  // --- payload accessors ------------------------------------------------------
  /// kXmlData: the constant items. A verbatim leaf builds them from its
  /// bytes on the first read (a canonical run always holds an item, so
  /// empty items with a live run means "not built yet"). The cache needs
  /// no synchronization: plan nodes are peer-confined (DESIGN.md §8).
  const ItemSet& items() const {
    if (items_.empty() && !verbatim_.empty()) BuildVerbatimItems();
    return items_;
  }
  /// Builds the items and drops the verbatim bytes: after a mutation the
  /// leaf re-encodes from its items.
  ItemSet& mutable_items() {
    items();
    DropVerbatim();
    Touch();
    return items_;
  }

  /// kXmlData: the canonical bytes the encoder re-emits for the items, or
  /// empty when the items must be written out node by node.
  std::string_view verbatim_items() const { return verbatim_; }

  /// kXmlData: the number of items, read without building them.
  size_t item_count() const {
    return verbatim_.empty() ? items_.size() : verbatim_count_;
  }

  /// kUrl: "host:port" or "http://host:port/"; `xpath` is the collection id.
  const std::string& url() const { return str_; }
  const std::string& xpath() const { return str2_; }

  /// kUrn: the URN text.
  const std::string& urn() const { return str_; }
  /// kUrn: the resolver-hint server address ("" when none).
  const std::string& urn_hint() const { return str2_; }

  /// kSelect / kJoin: the predicate / join condition.
  const ExprPtr& expr() const { return expr_; }

  /// kProject: retained field names.
  const std::vector<std::string>& fields() const { return fields_; }

  /// kAggregate.
  AggFunc agg_func() const { return agg_func_; }
  const std::string& agg_field() const { return str_; }
  const std::string& group_by() const { return str2_; }

  /// kTopN. `limit()` is only meaningful when `has_limit()`; an
  /// unbounded TopN (plain ORDER BY) sorts without truncating.
  bool has_limit() const { return has_limit_; }
  uint64_t limit() const { return limit_; }
  const std::string& order_field() const { return str_; }
  bool ascending() const { return ascending_; }

  /// kUnion: set semantics?
  bool distinct() const { return distinct_; }

  /// kDisplay.
  const std::string& target() const { return str_; }

  /// Mutable access conservatively re-stamps the node (a false "dirty" only
  /// costs one extra serialization; a missed mutation would send stale
  /// bytes). Verbatim items survive: annotations are start-tag attributes.
  Annotations& annotations() {
    Touch();
    return annotations_;
  }
  const Annotations& annotations() const { return annotations_; }

  /// Mutation stamp: process-unique at construction, refreshed by every
  /// mutating accessor. Plan's serialization cache fingerprints the DAG by
  /// walking stamps (see Plan::StructuralFingerprint).
  uint64_t stamp() const { return stamp_; }

  // --- whole-graph helpers ----------------------------------------------------

  /// Deep copy. Shared sub-DAGs remain shared in the copy, and a verbatim
  /// leaf's copy shares its buffer.
  PlanNodePtr Clone() const;

  /// Morphs this node in place into constant data — the *reduction* step of
  /// mutant query processing (§2: "substitutes the resulting XML fragments
  /// ... in the place of the evaluated sub-plans"). Annotations are cleared
  /// except staleness, which describes the data itself.
  void MorphToData(ItemSet items);

  /// True for a bag union (not distinct, no top-k bound) with at least one
  /// verbatim data input: FoldUnion can reduce it once its other inputs
  /// are evaluated, without building the carried items.
  bool IsFoldableUnion() const;

  /// The reduction step for a union that IsFoldableUnion, done on bytes:
  /// morphs it into one verbatim data leaf whose run is its inputs' items
  /// in child order — a verbatim input's run, another data input's items
  /// as TokenWriter::Write emits them, and for each remaining input
  /// `evaluated[i]` (one entry per child) written likewise. A canonical
  /// run is its items' serialization, so the leaf encodes exactly as the
  /// evaluated union would after MorphToData; its items are built from
  /// the bytes on first read. Annotations as MorphToData: cardinality
  /// becomes the item count, staleness stays.
  void FoldUnion(const std::vector<ItemSet>& evaluated);

  /// Morphs this node in place into a copy of `other` — the *resolution*
  /// step (URN replaced by its binding). Annotations on this node are
  /// replaced by `other`'s. The result re-encodes its items from DOM.
  void MorphTo(const PlanNode& other);

  /// True iff the node is constant data (a fully evaluated plan).
  bool IsConstant() const { return type_ == OpType::kXmlData; }

  /// All distinct URN leaves in the DAG.
  std::vector<const PlanNode*> UrnLeaves() const;

  /// Structural equality (ignores annotations by default).
  bool Equals(const PlanNode& other, bool compare_annotations = false) const;

  /// One-line summary, e.g. "select(price < 10)".
  std::string Summary() const;

  /// Multi-line indented tree rendering for debugging.
  std::string ToDebugString(int indent = 0) const;

 private:
  explicit PlanNode(OpType type) : type_(type) {}

  /// Single-allocation construction (make_shared): node churn is the
  /// decode/clone hot path.
  static PlanNodePtr New(OpType type);

  PlanNodePtr CloneInternal(
      std::vector<std::pair<const PlanNode*, PlanNodePtr>>* memo) const;

  static uint64_t NextStamp();
  void Touch() { stamp_ = NextStamp(); }

  void BuildVerbatimItems() const;
  void DropVerbatim() {
    verbatim_buffer_.reset();
    verbatim_ = {};
    verbatim_count_ = 0;
  }

  OpType type_;
  uint64_t stamp_ = NextStamp();
  std::vector<PlanNodePtr> children_;
  mutable ItemSet items_;  // built lazily from verbatim_ (see items())
  std::shared_ptr<const std::string> verbatim_buffer_;  // owns verbatim_
  std::string_view verbatim_;
  size_t verbatim_count_ = 0;  // items in verbatim_
  std::string str_;   // url / urn / agg field / order field / target
  std::string str2_;  // xpath / group_by
  ExprPtr expr_;
  std::vector<std::string> fields_;
  AggFunc agg_func_ = AggFunc::kCount;
  uint64_t limit_ = 0;
  bool has_limit_ = false;
  bool ascending_ = true;
  bool distinct_ = false;
  Annotations annotations_;
};

/// User preference when latency, completeness and currency conflict
/// (paper §4.3: "a binary preference for complete versus current answers").
enum class AnswerPreference { kComplete, kCurrent };

/// \brief Policies an MQP carries with it (paper §5.2: "do not bind
/// preferences until playlist is bound", "only let this MQP pass
/// through servers on this list"; §4.3: time budget + answer preference).
struct PlanPolicy {
  /// When non-empty, the MQP may only be routed to these addresses.
  std::vector<std::string> route_allow;

  /// Addresses the MQP should route *around* (DESIGN.md §9): the client
  /// retry layer stamps its suspicion list here so a retried plan skips
  /// servers the previous attempt found dead. Advisory, not a hard
  /// filter — a hop ignores it when every candidate is excluded.
  std::vector<std::string> route_avoid;

  /// Ordering constraints: each pair {first, then} means the URN `then`
  /// must not be bound while the URN `first` is still unresolved in the
  /// plan.
  std::vector<std::pair<std::string, std::string>> bind_after;

  /// Target evaluation time in seconds (0 = unconstrained).
  double time_budget_seconds = 0;

  /// Scheduling priority under overload (DESIGN.md §11). 0 = best-effort;
  /// higher values are shed later. Admission control sheds priority-0
  /// traffic first and only refuses higher priorities past a hard ceiling.
  uint32_t priority = 0;

  AnswerPreference preference = AnswerPreference::kComplete;

  bool Empty() const {
    return route_allow.empty() && route_avoid.empty() &&
           bind_after.empty() && time_budget_seconds == 0 &&
           priority == 0 && preference == AnswerPreference::kComplete;
  }
  bool operator==(const PlanPolicy&) const = default;
};

/// \brief A complete mutant query plan: operator graph + target +
/// provenance + policy + (optionally) the original query retained for
/// §5.1 uses.
class Plan {
 public:
  Plan() = default;
  explicit Plan(PlanNodePtr root) : root_(std::move(root)) {}

  const PlanNodePtr& root() const { return root_; }
  void set_root(PlanNodePtr root) { root_ = std::move(root); }

  /// The delivery target (from the top-level display node, if any).
  std::string target() const;

  Provenance& provenance() { return provenance_; }
  const Provenance& provenance() const { return provenance_; }

  /// Optional copy of the original, unevaluated plan (§5.1). May be null.
  const PlanNodePtr& original() const { return original_; }
  void set_original(PlanNodePtr original) { original_ = std::move(original); }

  /// Retains a snapshot of the current root as the original plan.
  void SnapshotOriginal();

  /// True iff the plan has been reduced to constant XML data
  /// (below the display node, if present).
  bool IsFullyEvaluated() const;

  /// The result items of a fully evaluated plan.
  Result<ItemSet> ResultItems() const;

  /// Best-effort items of a *partially* evaluated plan (DESIGN.md §9):
  /// the constant data already reduced under the root, collected only
  /// through operators that cannot invalidate it (Union merges its
  /// inputs; Or needs any one input, so its first constant alternative
  /// stands alone). Anything still pending under a Select/Join/etc.
  /// contributes nothing — a filter not yet applied could reject every
  /// item, so guessing would overclaim. Fully evaluated plans return
  /// exactly ResultItems().
  ItemSet PartialItems() const;

  /// Deep copy (root, original, provenance).
  Plan Clone() const;

  /// Client-assigned query identifier (correlates results with requests).
  const std::string& query_id() const { return query_id_; }
  void set_query_id(std::string id) { query_id_ = std::move(id); }

  /// Simulation time at which the client submitted the query (seconds);
  /// used with PlanPolicy::time_budget_seconds.
  double submitted_at() const { return submitted_at_; }
  void set_submitted_at(double t) { submitted_at_ = t; }

  PlanPolicy& policy() { return policy_; }
  const PlanPolicy& policy() const { return policy_; }

  // --- serialization cache (wire layer) ---------------------------------------
  //
  // A plan that is merely *routed* at a hop — received, inspected, and
  // forwarded without mutation — must not be re-serialized. The cache
  // holds the plan's exact wire bytes together with a structural
  // fingerprint of the graph at the time they were produced; any node
  // mutation (tracked via PlanNode stamps) or provenance append
  // invalidates it. Parsers attach the incoming buffer so a pure routing
  // hop forwards the very same (shared, immutable) bytes it received.

  /// Fingerprint of the plan's current state: DFS over the operator DAG
  /// (root and original) mixing node stamps, plus provenance length,
  /// policy and identity fields. O(nodes); far cheaper than serializing.
  uint64_t StructuralFingerprint() const;

  /// The cached wire form; may be null, or stale (check WireCacheValid).
  const std::shared_ptr<const std::string>& cached_wire() const {
    return wire_;
  }

  /// True iff cached_wire() holds the serialization of the *current* plan.
  bool WireCacheValid() const {
    return wire_ != nullptr && wire_fingerprint_ == StructuralFingerprint();
  }

  /// Records `bytes` as the serialization of the plan's current state.
  /// Called by wire/plan_codec with freshly produced or freshly parsed
  /// bytes. Const: the cache is metadata, not plan state.
  void AttachWireCache(std::shared_ptr<const std::string> bytes) const {
    wire_ = std::move(bytes);
    wire_fingerprint_ = StructuralFingerprint();
  }

 private:
  PlanNodePtr root_;
  PlanNodePtr original_;
  Provenance provenance_;
  PlanPolicy policy_;
  std::string query_id_;
  double submitted_at_ = 0;
  mutable std::shared_ptr<const std::string> wire_;
  mutable uint64_t wire_fingerprint_ = 0;
};

}  // namespace mqp::algebra
