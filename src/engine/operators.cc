#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "engine/field_accessor.h"
#include "engine/operator.h"
#include "engine/topk_heap.h"

namespace mqp::engine {

namespace {
// Thread-local (see EngineStats): evaluations on different handler
// threads tally independently; every consumer reads deltas on its own
// thread.
thread_local EngineStats g_stats;
// The active evaluation budget (DESIGN.md §11); inactive by default so
// unbudgeted evaluations pay one boolean test per checkpoint.
thread_local internal::BudgetState g_budget;

Status BudgetExhausted() {
  if (!g_budget.exhausted) {
    g_budget.exhausted = true;
    ++g_stats.budget_aborts;  // first trip only: one abort per budget
  }
  return Status::Timeout("evaluation budget exhausted");
}

// Charges one produced row against the active budget.
Status ChargeRow() {
  internal::BudgetState& b = g_budget;
  if (!b.active) return Status::OK();
  if (b.rows_left == 0) return BudgetExhausted();  // counts the first trip
  --b.rows_left;
  return Status::OK();
}
}  // namespace

const EngineStats& Stats() { return g_stats; }

namespace internal {
EngineStats& MutableStats() { return g_stats; }

BudgetState& Budget() { return g_budget; }
}  // namespace internal

ScopedEvalBudget::ScopedEvalBudget(const EvalLimits& limits)
    : saved_(g_budget) {
  internal::BudgetState b;
  b.active = limits.max_rows > 0;
  b.rows_left = limits.max_rows;
  g_budget = b;
}

ScopedEvalBudget::~ScopedEvalBudget() { g_budget = saved_; }

namespace {

using algebra::Expr;
using algebra::ExprPtr;
using algebra::Item;
using algebra::ItemSet;
using algebra::OpType;
using algebra::PlanNode;

/// Scans a materialized item set.
class DataScan : public Operator {
 public:
  explicit DataScan(ItemSet items) : items_(std::move(items)) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }

  Result<std::optional<Item>> Next() override {
    if (pos_ >= items_.size()) return std::optional<Item>();
    MQP_RETURN_IF_ERROR(ChargeRow());
    return std::optional<Item>(items_[pos_++]);
  }

  void Close() override {}

 private:
  ItemSet items_;
  size_t pos_ = 0;
};

/// Filters by a boolean predicate.
class Filter : public Operator {
 public:
  Filter(ExprPtr pred, OperatorPtr input)
      : pred_(std::move(pred)), input_(std::move(input)) {}

  Status Open() override { return input_->Open(); }

  Result<std::optional<Item>> Next() override {
    while (true) {
      MQP_ASSIGN_OR_RETURN(auto item, input_->Next());
      if (!item) return std::optional<Item>();
      if (pred_ == nullptr || pred_->EvalBool(**item)) return item;
    }
  }

  void Close() override { input_->Close(); }

 private:
  ExprPtr pred_;
  OperatorPtr input_;
};

/// Keeps only the listed child fields of each item.
class Projector : public Operator {
 public:
  Projector(std::vector<std::string> fields, OperatorPtr input)
      : fields_(std::move(fields)), input_(std::move(input)) {}

  Status Open() override { return input_->Open(); }

  Result<std::optional<Item>> Next() override {
    MQP_ASSIGN_OR_RETURN(auto item, input_->Next());
    if (!item) return std::optional<Item>();
    auto out = xml::Node::Element((*item)->name());
    for (const auto& [k, v] : (*item)->attrs()) {
      out->SetAttr(k, v);
    }
    for (const auto& f : fields_) {
      for (const xml::Node* c : (*item)->Children(f)) {
        out->AddChild(c->Clone());
      }
    }
    return std::optional<Item>(Item(out.release()));
  }

  void Close() override { input_->Close(); }

 private:
  std::vector<std::string> fields_;
  OperatorPtr input_;
};

// Merges two matched items into one element (left's name; children and
// attributes of both, right's attributes prefixed on collision).
Item MergeItems(const xml::Node& left, const xml::Node& right) {
  auto out = xml::Node::Element(left.name());
  for (const auto& [k, v] : left.attrs()) out->SetAttr(k, v);
  for (const auto& [k, v] : right.attrs()) {
    if (out->Attr(k).has_value()) {
      out->SetAttr("right." + k, v);
    } else {
      out->SetAttr(k, v);
    }
  }
  for (const auto& c : left.children()) out->AddChild(c->Clone());
  for (const auto& c : right.children()) out->AddChild(c->Clone());
  return Item(out.release());
}

// Returns the field paths of an equi-join condition, or nullopt for a
// general theta join.
struct EquiKeys {
  std::string left;
  std::string right;
};
std::optional<EquiKeys> ExtractEquiKeys(const ExprPtr& cond) {
  if (cond == nullptr || cond->kind() != Expr::Kind::kCompare ||
      cond->compare_op() != algebra::CompareOp::kEq) {
    return std::nullopt;
  }
  const ExprPtr& l = cond->lhs();
  const ExprPtr& r = cond->rhs();
  if (l->kind() != Expr::Kind::kField || r->kind() != Expr::Kind::kField) {
    return std::nullopt;
  }
  if (l->side() == algebra::Side::kLeft &&
      r->side() == algebra::Side::kRight) {
    return EquiKeys{l->field_path(), r->field_path()};
  }
  if (l->side() == algebra::Side::kRight &&
      r->side() == algebra::Side::kLeft) {
    return EquiKeys{r->field_path(), l->field_path()};
  }
  return std::nullopt;
}

/// A hash table over shared items keyed on xml::StructuralHash with
/// xml::Node::StructurallyEquals verification — the engine's set
/// semantics, replacing the old xml::Serialize string keys. Entries hold
/// shared refs (no copies) plus a per-entry count for multiset use.
class ItemHashTable {
 public:
  void Clear() { buckets_.clear(); }

  /// Adds one occurrence of `item`; returns true if it was new.
  bool Add(const Item& item) {
    ++g_stats.structural_hash_probes;
    auto& bucket = buckets_[xml::StructuralHash(*item)];
    for (Entry& e : bucket) {
      if (e.item->StructurallyEquals(*item)) {
        ++e.count;
        return false;
      }
    }
    bucket.push_back(Entry{item, 1});
    return true;
  }

  /// Removes one occurrence structurally equal to `item`; returns true if
  /// one was present.
  bool RemoveOne(const Item& item) {
    ++g_stats.structural_hash_probes;
    auto it = buckets_.find(xml::StructuralHash(*item));
    if (it == buckets_.end()) return false;
    for (Entry& e : it->second) {
      if (e.count > 0 && e.item->StructurallyEquals(*item)) {
        --e.count;
        return true;
      }
    }
    return false;
  }

 private:
  struct Entry {
    Item item;  // shared ref: keeps the representative alive
    int count;
  };
  std::unordered_map<uint64_t, std::vector<Entry>> buckets_;
};

/// Hash join for equi conditions; falls back to nested loops otherwise.
/// In `left_outer` mode, left items with no match pass through unchanged
/// (§2's A ⟖ B). Build keys are extracted once with a compiled
/// FieldAccessor and decorated onto the build side; probes hash the
/// borrowed key view and then borrow the matching bucket by pointer.
class Join : public Operator {
 public:
  Join(ExprPtr cond, OperatorPtr left, OperatorPtr right,
       bool left_outer = false)
      : cond_(std::move(cond)),
        left_(std::move(left)),
        right_(std::move(right)),
        left_outer_(left_outer),
        keys_(ExtractEquiKeys(cond_)) {}

  Status Open() override {
    MQP_RETURN_IF_ERROR(left_->Open());
    MQP_RETURN_IF_ERROR(right_->Open());
    // Materialize the right (build) side.
    build_.clear();
    build_keys_.clear();
    hash_.clear();
    while (true) {
      MQP_ASSIGN_OR_RETURN(auto item, right_->Next());
      if (!item) break;
      build_.push_back(*item);
    }
    if (keys_) {
      probe_key_ = FieldAccessor(keys_->left);
      FieldAccessor build_key(keys_->right);
      build_keys_.resize(build_.size());
      for (size_t i = 0; i < build_.size(); ++i) {
        auto key = build_key.Eval(*build_[i]);
        if (!key) continue;
        build_keys_[i].assign(key->data(), key->size());
        hash_[std::hash<std::string_view>{}(*key)].push_back(i);
      }
    }
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<std::optional<Item>> Next() override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        // Joins can amplify: charge merged outputs, not just source rows.
        MQP_RETURN_IF_ERROR(ChargeRow());
        const Item& r = build_[(*matches_)[match_pos_++]];
        return std::optional<Item>(MergeItems(*probe_, *r));
      }
      MQP_ASSIGN_OR_RETURN(auto item, left_->Next());
      if (!item) return std::optional<Item>();
      probe_ = *item;
      matches_ = nullptr;
      match_pos_ = 0;
      size_t match_count = 0;
      if (keys_) {
        auto key = probe_key_->Eval(*probe_);
        if (key) {
          auto it = hash_.find(std::hash<std::string_view>{}(*key));
          if (it != hash_.end()) {
            // Hash collisions are possible: verify the decorated build
            // keys first, and copy candidates out only when a collision
            // actually mixed keys into the bucket (the common bucket is
            // borrowed by pointer, never copied).
            bool exact = true;
            for (size_t i : it->second) {
              if (build_keys_[i] != *key) {
                exact = false;
                break;
              }
            }
            if (exact) {
              matches_ = &it->second;  // borrow the bucket: no copy
            } else {
              theta_matches_.clear();
              for (size_t i : it->second) {
                if (build_keys_[i] == *key) theta_matches_.push_back(i);
              }
              if (!theta_matches_.empty()) matches_ = &theta_matches_;
            }
            match_count = matches_ == nullptr ? 0 : matches_->size();
          }
        }
      } else {
        theta_matches_.clear();
        for (size_t i = 0; i < build_.size(); ++i) {
          if (cond_ == nullptr || cond_->EvalBool(*probe_, build_[i].get())) {
            theta_matches_.push_back(i);
          }
        }
        if (!theta_matches_.empty()) matches_ = &theta_matches_;
        match_count = theta_matches_.size();
      }
      if (left_outer_ && match_count == 0) {
        return std::optional<Item>(probe_);  // unmatched left passes through
      }
    }
  }

  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  ExprPtr cond_;
  OperatorPtr left_;
  OperatorPtr right_;
  bool left_outer_;
  std::optional<EquiKeys> keys_;
  std::optional<FieldAccessor> probe_key_;
  ItemSet build_;
  std::vector<std::string> build_keys_;  // decorated once at Open()
  std::unordered_map<uint64_t, std::vector<size_t>> hash_;
  Item probe_;
  const std::vector<size_t>* matches_ = nullptr;  // borrowed bucket
  std::vector<size_t> theta_matches_;  // reused storage (capacity kept)
  size_t match_pos_ = 0;
};

/// Union of n inputs: bag semantics by default, set semantics (structural
/// deduplication via StructuralHash + StructurallyEquals over shared
/// items) when `distinct` is set.
class UnionAll : public Operator {
 public:
  UnionAll(std::vector<OperatorPtr> inputs, bool distinct)
      : inputs_(std::move(inputs)), distinct_(distinct) {}

  Status Open() override {
    for (auto& in : inputs_) {
      MQP_RETURN_IF_ERROR(in->Open());
    }
    current_ = 0;
    seen_.Clear();
    return Status::OK();
  }

  Result<std::optional<Item>> Next() override {
    while (current_ < inputs_.size()) {
      MQP_ASSIGN_OR_RETURN(auto item, inputs_[current_]->Next());
      if (item) {
        if (distinct_ && !seen_.Add(*item)) {
          continue;  // duplicate of an already-produced item
        }
        return item;
      }
      ++current_;
    }
    return std::optional<Item>();
  }

  void Close() override {
    for (auto& in : inputs_) in->Close();
  }

 private:
  std::vector<OperatorPtr> inputs_;
  bool distinct_;
  size_t current_ = 0;
  ItemHashTable seen_;
};

/// Multiset difference: left items minus one occurrence per matching right
/// item (match = structural equality, keyed by StructuralHash).
class Difference : public Operator {
 public:
  Difference(OperatorPtr left, OperatorPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}

  Status Open() override {
    MQP_RETURN_IF_ERROR(left_->Open());
    MQP_RETURN_IF_ERROR(right_->Open());
    counts_.Clear();
    while (true) {
      MQP_ASSIGN_OR_RETURN(auto item, right_->Next());
      if (!item) break;
      counts_.Add(*item);
    }
    return Status::OK();
  }

  Result<std::optional<Item>> Next() override {
    while (true) {
      MQP_ASSIGN_OR_RETURN(auto item, left_->Next());
      if (!item) return std::optional<Item>();
      if (counts_.RemoveOne(*item)) continue;
      return item;
    }
  }

  void Close() override {
    left_->Close();
    right_->Close();
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ItemHashTable counts_;
};

/// Blocking aggregation with optional group-by.
///
/// Output items have the form
///   <agg><group>G</group><count>N</count></agg>
/// (the <group> child is omitted without a group-by; the value element is
/// named after the function).
class Aggregator : public Operator {
 public:
  Aggregator(algebra::AggFunc func, std::string field, std::string group_by,
             OperatorPtr input)
      : func_(func),
        field_(std::move(field)),
        group_by_(std::move(group_by)),
        input_(std::move(input)) {}

  Status Open() override {
    MQP_RETURN_IF_ERROR(input_->Open());
    groups_.clear();
    std::optional<FieldAccessor> group_key;
    std::optional<FieldAccessor> value_key;
    if (!group_by_.empty()) group_key.emplace(group_by_);
    if (!field_.empty()) value_key.emplace(field_);
    // std::map: deterministic group order.
    while (true) {
      MQP_ASSIGN_OR_RETURN(auto item, input_->Next());
      if (!item) break;
      std::string_view group;
      if (group_key) {
        group = group_key->Eval(**item).value_or(std::string_view());
      }
      auto it = groups_.find(group);
      if (it == groups_.end()) {
        it = groups_.emplace(std::string(group), State{}).first;
      }
      State& st = it->second;
      ++st.count;
      if (value_key) {
        auto raw = value_key->Eval(**item);
        double v = 0;
        if (raw && mqp::ParseDouble(*raw, &v)) {
          st.sum += v;
          if (st.numeric_count == 0 || v < st.min) st.min = v;
          if (st.numeric_count == 0 || v > st.max) st.max = v;
          ++st.numeric_count;
        }
      }
    }
    it_ = groups_.begin();
    // With no input rows and no group-by, still emit one row (count=0).
    if (groups_.empty() && group_by_.empty()) {
      groups_[""] = State{};
      it_ = groups_.begin();
    }
    return Status::OK();
  }

  Result<std::optional<Item>> Next() override {
    if (it_ == groups_.end()) return std::optional<Item>();
    const auto& [group, st] = *it_;
    ++it_;
    auto out = xml::Node::Element("agg");
    if (!group_by_.empty()) {
      out->AddElementWithText("group", group);
    }
    double value = 0;
    switch (func_) {
      case algebra::AggFunc::kCount:
        value = static_cast<double>(st.count);
        break;
      case algebra::AggFunc::kSum:
        value = st.sum;
        break;
      case algebra::AggFunc::kMin:
        value = st.numeric_count > 0 ? st.min : 0;
        break;
      case algebra::AggFunc::kMax:
        value = st.numeric_count > 0 ? st.max : 0;
        break;
      case algebra::AggFunc::kAvg:
        value = st.numeric_count > 0 ? st.sum / st.numeric_count : 0;
        break;
    }
    out->AddElementWithText(std::string(algebra::AggFuncName(func_)),
                            mqp::FormatDouble(value));
    return std::optional<Item>(Item(out.release()));
  }

  void Close() override { input_->Close(); }

 private:
  struct State {
    uint64_t count = 0;
    uint64_t numeric_count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };

  algebra::AggFunc func_;
  std::string field_;
  std::string group_by_;
  OperatorPtr input_;
  // Transparent comparator: group lookup by string_view, no per-item key
  // string until a group is actually new.
  std::map<std::string, State, std::less<>> groups_;
  std::map<std::string, State, std::less<>>::const_iterator it_;
};

/// Blocking order-by + limit over a TopKHeap: keys are extracted once
/// per item with a compiled accessor and decorated with the arrival
/// sequence (the stable_sort tie-break), and only the best n entries are
/// retained — O(N log n) instead of materialize-sort-truncate's
/// O(N log N) with keys re-extracted per comparison. An absent limit
/// (plain ORDER BY) keeps everything. The same heap — and the same
/// (key, leaf, idx) total order — drives the distributed top-k
/// coordinator, which is what makes the two paths bit-identical.
class TopNOp : public Operator {
 public:
  TopNOp(std::optional<uint64_t> n, std::string order_field, bool ascending,
         OperatorPtr input)
      : n_(n),
        order_field_(std::move(order_field)),
        ascending_(ascending),
        input_(std::move(input)) {}

  Status Open() override {
    MQP_RETURN_IF_ERROR(input_->Open());
    TopKHeap heap(n_, ascending_);
    FieldAccessor key(order_field_);
    uint64_t seq = 0;
    while (true) {
      MQP_ASSIGN_OR_RETURN(auto item, input_->Next());
      if (!item) break;
      const std::string_view k =
          key.Eval(**item).value_or(std::string_view());
      heap.Push(k, 0, seq++, *item);
    }
    out_ = heap.Finish();
    pos_ = 0;
    return Status::OK();
  }

  Result<std::optional<Item>> Next() override {
    if (pos_ >= out_.size()) return std::optional<Item>();
    return std::optional<Item>(out_[pos_++]);
  }

  void Close() override { input_->Close(); }

 private:
  std::optional<uint64_t> n_;
  std::string order_field_;
  bool ascending_;
  OperatorPtr input_;
  ItemSet out_;
  size_t pos_ = 0;
};

}  // namespace

Result<OperatorPtr> BuildOperator(const PlanNode& plan, DataSource* source) {
  switch (plan.type()) {
    case OpType::kXmlData:
      return OperatorPtr(new DataScan(plan.items()));
    case OpType::kUrl: {
      if (source == nullptr) {
        return Status::Unresolved("no data source for URL " + plan.url());
      }
      MQP_ASSIGN_OR_RETURN(auto items, source->Fetch(plan.url(), plan.xpath()));
      return OperatorPtr(new DataScan(std::move(items)));
    }
    case OpType::kUrn:
      return Status::Unresolved("plan contains unresolved URN " + plan.urn());
    case OpType::kSelect: {
      MQP_ASSIGN_OR_RETURN(auto input, BuildOperator(*plan.child(0), source));
      return OperatorPtr(new Filter(plan.expr(), std::move(input)));
    }
    case OpType::kProject: {
      MQP_ASSIGN_OR_RETURN(auto input, BuildOperator(*plan.child(0), source));
      return OperatorPtr(new Projector(plan.fields(), std::move(input)));
    }
    case OpType::kJoin:
    case OpType::kLeftOuterJoin: {
      MQP_ASSIGN_OR_RETURN(auto left, BuildOperator(*plan.child(0), source));
      MQP_ASSIGN_OR_RETURN(auto right, BuildOperator(*plan.child(1), source));
      return OperatorPtr(
          new Join(plan.expr(), std::move(left), std::move(right),
                   plan.type() == OpType::kLeftOuterJoin));
    }
    case OpType::kUnion: {
      std::vector<OperatorPtr> inputs;
      for (const auto& c : plan.children()) {
        MQP_ASSIGN_OR_RETURN(auto in, BuildOperator(*c, source));
        inputs.push_back(std::move(in));
      }
      return OperatorPtr(new UnionAll(std::move(inputs), plan.distinct()));
    }
    case OpType::kOr: {
      // The optimizer normally eliminates Or; evaluate the first
      // alternative as a safe default (A | B -> A).
      if (plan.children().empty()) {
        return Status::Internal("Or node with no alternatives");
      }
      return BuildOperator(*plan.child(0), source);
    }
    case OpType::kDifference: {
      MQP_ASSIGN_OR_RETURN(auto left, BuildOperator(*plan.child(0), source));
      MQP_ASSIGN_OR_RETURN(auto right, BuildOperator(*plan.child(1), source));
      return OperatorPtr(new Difference(std::move(left), std::move(right)));
    }
    case OpType::kAggregate: {
      MQP_ASSIGN_OR_RETURN(auto input, BuildOperator(*plan.child(0), source));
      return OperatorPtr(new Aggregator(plan.agg_func(), plan.agg_field(),
                                        plan.group_by(), std::move(input)));
    }
    case OpType::kTopN: {
      MQP_ASSIGN_OR_RETURN(auto input, BuildOperator(*plan.child(0), source));
      return OperatorPtr(new TopNOp(
          plan.has_limit() ? std::optional<uint64_t>(plan.limit())
                           : std::nullopt,
          plan.order_field(), plan.ascending(), std::move(input)));
    }
    case OpType::kDisplay:
      // Display is a routing pseudo-operator; evaluate its input.
      return BuildOperator(*plan.child(0), source);
  }
  return Status::Internal("unhandled operator type");
}

namespace {

// Pulls every item of an opened operator into `out`.
Status Drain(Operator* op, ItemSet* out) {
  while (true) {
    MQP_ASSIGN_OR_RETURN(auto item, op->Next());
    if (!item) return Status::OK();
    out->push_back(*item);
  }
}

// Charges a data leaf as DataScan would: a row per item.
Status ChargeData(const PlanNode& leaf) {
  for (size_t i = 0; i < leaf.item_count(); ++i) {
    MQP_RETURN_IF_ERROR(ChargeRow());
  }
  return Status::OK();
}

// Runs `fn`, adding its wall time to engine_eval_ns.
template <typename Fn>
auto Timed(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  auto result = fn();
  g_stats.engine_eval_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

}  // namespace

Result<algebra::ItemSet> Evaluate(const PlanNode& plan, DataSource* source) {
  return Timed([&]() -> Result<algebra::ItemSet> {
    MQP_ASSIGN_OR_RETURN(auto op, BuildOperator(plan, source));
    MQP_RETURN_IF_ERROR(op->Open());
    algebra::ItemSet out;
    MQP_RETURN_IF_ERROR(Drain(op.get(), &out));
    op->Close();
    return out;
  });
}

Result<std::vector<algebra::ItemSet>> EvaluateUnionInputs(
    const PlanNode& bag_union, DataSource* source) {
  return Timed([&]() -> Result<std::vector<algebra::ItemSet>> {
    // The same phases, in the same child order, as UnionAll under
    // Evaluate: build every input, open every input, then drain.
    const auto& inputs = bag_union.children();
    std::vector<OperatorPtr> ops(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i]->IsConstant()) continue;
      MQP_ASSIGN_OR_RETURN(ops[i], BuildOperator(*inputs[i], source));
    }
    for (const auto& op : ops) {
      if (op != nullptr) MQP_RETURN_IF_ERROR(op->Open());
    }
    std::vector<algebra::ItemSet> out(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (ops[i] == nullptr) {
        MQP_RETURN_IF_ERROR(ChargeData(*inputs[i]));
      } else {
        MQP_RETURN_IF_ERROR(Drain(ops[i].get(), &out[i]));
      }
    }
    for (const auto& op : ops) {
      if (op != nullptr) op->Close();
    }
    return out;
  });
}

}  // namespace mqp::engine
