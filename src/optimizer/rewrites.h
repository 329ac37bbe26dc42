// Plan rewrites specific to mutant query processing (paper §2 and §6):
//
//  * select pushdown through union/or — Figure 4(a) pushes the select
//    through the union produced by URN resolution;
//  * or-elimination — §4.2's rules A|B → A, A|B → B, chosen by cost,
//    locality, or currency preference (§4.3);
//  * consolidation — reordering joins so locally evaluable inputs come
//    together;
//  * absorption — the (A ⋈ X) ⋈ B → (A ⋈ B) ⋈ X rewrite, applied when
//    the estimate |A ⋈ B| ≤ |A| says it shrinks the shipped partial
//    result.
//
// All rewrites mutate the plan in place and return how many times they
// fired (for the ablation benches).
#pragma once

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "optimizer/cost.h"
#include "optimizer/evaluable.h"

namespace mqp::optimizer {

/// \brief Pushes select through union and or nodes:
/// select(p, union(x1..xn)) → union(select(p,x1)..select(p,xn)).
/// Returns the number of pushdowns performed.
int PushSelectThroughUnion(algebra::PlanNode* root);

/// How to pick a branch of an Or node (§4.3 user preference).
enum class OrPreference {
  kCheapest,        ///< minimize estimated shipped bytes
  kPreferLocal,     ///< locally evaluable branch first, then cheapest
  kPreferCurrent,   ///< minimize staleness bound, then cheapest
  kPreferComplete,  ///< maximize source count (completeness), then currency
};

/// \brief Maximum staleness annotation in the sub-DAG (minutes); the
/// currency bound of the data below `node`.
int MaxStalenessMinutes(const algebra::PlanNode& node);

/// \brief Index of the preferred alternative of an Or node.
size_t ChooseOrBranch(const algebra::PlanNode& or_node,
                      const Locality& locality, const CostModel& cost,
                      OrPreference pref);

/// \brief Replaces every Or node with its preferred alternative.
/// Returns the number of eliminations.
int EliminateOrNodes(algebra::PlanNode* root, const Locality& locality,
                     const CostModel& cost,
                     OrPreference pref = OrPreference::kPreferLocal);

/// \brief Field-provenance probe: true if items produced by `node` are
/// known to carry a field at `path`. Conservative (false on unknowns);
/// used to validate join reorderings. The locality's url_provides_field
/// callback extends the probe through local URL leaves.
bool NodeProvidesField(const algebra::PlanNode& node, const std::string& path,
                       const Locality& locality = {});

/// \brief Consolidation: rewrites join(join(A, X), B) → join(join(A, B), X)
/// when A and B are locally evaluable, X is not, and the outer join's
/// left-side fields are provided by A (checked via NodeProvidesField).
/// Returns the number of reorders.
int ConsolidateJoins(algebra::PlanNode* root, const Locality& locality);

/// \brief Absorption: the same reorder, but applied only when the cost
/// model says |A ⋈ B| ≤ |A| — i.e. evaluating (A ⋈ B) locally shrinks
/// the partial result shipped onward (paper §2's rewrite example).
int ApplyAbsorption(algebra::PlanNode* root, const Locality& locality,
                    const CostModel& cost);

/// Ablation knob (the PR 3/4 pattern): false disables PushTopKBounds,
/// restoring the ship-everything reference — remote leaves return full
/// result sets and TopN truncates at the consumer. Flip only while the
/// process is quiescent.
void set_use_distributed_topk(bool on);
bool use_distributed_topk();

/// \brief Distributed top-k bound pushdown (DESIGN.md §10): for each
/// bounded TopN(k, field), descends through non-distinct Union nodes and
/// stamps a TopKBound annotation (order_field, ascending, k) on each of
/// them and on every maximal remote single-server sub-plan — no
/// Display/Urn nodes, at least one URL leaf, all URL leaves on one
/// non-local server. The hosting peer's top-k coordinator turns
/// annotated sub-plans into bounded, score-ordered, batched subquery
/// requests; a bounded union reduces to its top k rows. Distinct
/// unions block the descent (per-branch truncation could collapse
/// duplicates below k distinct rows). Returns the number of nodes
/// stamped; already-stamped nodes are left untouched (no wire-cache
/// churn). No-op when use_distributed_topk() is false.
int PushTopKBounds(algebra::PlanNode* root, const Locality& locality);

/// \brief §4.2 Example 3's transformation: E − (A ∪ B) → (E − A) − B,
/// applied when some union branch is locally evaluable — the partially
/// evaluated difference "may be much smaller than res(E) itself".
/// Locally evaluable branches are moved to the *front* so they subtract
/// en route. Returns the number of splits.
int SplitDifferenceOverUnion(algebra::PlanNode* root,
                             const Locality& locality);

}  // namespace mqp::optimizer
