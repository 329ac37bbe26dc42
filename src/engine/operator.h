// Physical operator interface (Volcano-style Open/Next/Close iterators).
//
// The engine evaluates *locally evaluable* sub-plans: by the time a plan
// node reaches the engine, all of its leaves must be constant XML data or
// URLs resolvable through a DataSource (paper Figure 2: the query engine
// receives sub-plans selected by the policy manager).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "algebra/plan.h"
#include "common/counters.h"
#include "common/result.h"

namespace mqp::engine {

/// \brief Per-thread engine instrumentation: the engine group of the
/// counter table (common/counters.h), as plain counters, no atomics. The
/// engine is single-threaded *per peer*: the transport serializes each
/// peer's handlers onto one thread at a time, while shared immutable
/// items remain readable cross-thread (DESIGN.md §8). Stats() is
/// therefore thread-local — a handler snapshots it before and after an
/// evaluation and reports the deltas through peer::CounterSink, the same
/// pattern as xml::DomNodesBuilt(). topk_rows_pruned is never bumped by
/// plain TopNOp, so the ablated ship-everything reference stays at zero.
struct EngineStats {
  MQP_ENGINE_COUNTERS(MQP_COUNTER_FIELD)
};

/// Cumulative engine counters (monotonic).
const EngineStats& Stats();

namespace internal {
EngineStats& MutableStats();
}  // namespace internal

/// \brief Per-evaluation resource budget (DESIGN.md §11). The peer
/// installs one thread-locally (ScopedEvalBudget) around each engine
/// entry — sub-plan evaluation, fetch/subquery service — after
/// converting a query's remaining deadline into a deterministic row
/// allowance. Operators charge the budget at their checkpoints (source
/// scans and join outputs); the first charge past the limit fails the
/// evaluation with kTimeout, counted in EngineStats::budget_aborts, so
/// the caller delivers a partial promptly instead of burning the core.
/// A budget counts rows only, so a given plan trips it at the same row
/// on every backend and every run.
struct EvalLimits {
  /// Rows produced across row checkpoints (source-scan and join output);
  /// 0 is unlimited.
  uint64_t max_rows = 0;
};

namespace internal {
/// Thread-local active-budget bookkeeping behind ScopedEvalBudget.
struct BudgetState {
  bool active = false;  ///< a row limit is installed
  bool exhausted = false;
  uint64_t rows_left = 0;
};
BudgetState& Budget();
}  // namespace internal

/// RAII: installs `limits` as the calling thread's active evaluation
/// budget. Guards nest; the innermost wins and destruction restores the
/// enclosing budget (or no budget). Default-constructed EvalLimits
/// installs "unlimited", which is how a scope opts out beneath an outer
/// budget.
class ScopedEvalBudget {
 public:
  explicit ScopedEvalBudget(const EvalLimits& limits);
  ~ScopedEvalBudget();
  ScopedEvalBudget(const ScopedEvalBudget&) = delete;
  ScopedEvalBudget& operator=(const ScopedEvalBudget&) = delete;

 private:
  internal::BudgetState saved_;
};

/// \brief Pull-based physical operator.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator; may recurse into inputs.
  virtual Status Open() = 0;

  /// Produces the next item, or nullopt at end-of-stream.
  virtual Result<std::optional<algebra::Item>> Next() = 0;

  /// Releases resources; idempotent.
  virtual void Close() = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// \brief Resolves URL leaves to local data during evaluation. A peer's
/// local store implements this; the default (nullptr) makes URL leaves an
/// error.
class DataSource {
 public:
  virtual ~DataSource() = default;

  /// Fetches the collection identified by (url, xpath).
  virtual Result<algebra::ItemSet> Fetch(const std::string& url,
                                         const std::string& xpath) = 0;
};

/// \brief Builds a physical operator tree for `plan`.
///
/// Fails with Unresolved if the plan contains URN leaves or URL leaves
/// that `source` cannot serve. An Or node evaluates its first alternative
/// (the optimizer eliminates Or nodes before execution; keeping a fallback
/// here makes partially optimized plans still runnable).
Result<OperatorPtr> BuildOperator(const algebra::PlanNode& plan,
                                  DataSource* source);

/// \brief Convenience: build + drain into a materialized ItemSet.
Result<algebra::ItemSet> Evaluate(const algebra::PlanNode& plan,
                                  DataSource* source = nullptr);

/// \brief Evaluates the inputs of a union that PlanNode::FoldUnion will
/// reduce: one ItemSet per child, holding what Evaluate yields for an
/// input that is not constant data and nothing for a data input. Charges
/// the active budget as Evaluate over the whole union would — a data
/// input's item count in rows — without building a verbatim input's
/// items, and fails where that evaluation fails.
Result<std::vector<algebra::ItemSet>> EvaluateUnionInputs(
    const algebra::PlanNode& bag_union, DataSource* source = nullptr);

}  // namespace mqp::engine
