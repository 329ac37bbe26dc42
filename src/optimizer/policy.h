// PolicyManager (paper Figure 2): decides which locally evaluable
// sub-plans the query engine should evaluate now, and which to *defer*
// (paper §6: "avoiding local execution of operators that increase the
// partial result size unjustifiably"). Deferred nodes are annotated with
// statistics instead (§5.1), so downstream servers can plan better.
#pragma once

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "optimizer/cost.h"

namespace mqp::optimizer {

/// \brief Deferment policy knobs (a growth limit of 1.25x is fixed in
/// policy.cc).
struct PolicyConfig {
  /// Master switch; when false everything evaluable is evaluated.
  bool enable_deferment = true;

  /// Defer anything whose estimated result exceeds this many bytes.
  uint64_t max_result_bytes = 4u << 20;
};

/// \brief One decision about one evaluable sub-plan.
struct EvalDecision {
  algebra::PlanNode* subplan = nullptr;
  bool evaluate = true;
  CostEstimate estimate;
  std::string reason;  ///< "evaluate", "defer:growth", "defer:size"
};

/// \brief Applies the deferment policy to the optimizer's candidates.
class PolicyManager {
 public:
  explicit PolicyManager(PolicyConfig config = {}) : config_(config) {}

  /// Decides each candidate; deferred sub-plans get card/bytes
  /// annotations written into the plan.
  std::vector<EvalDecision> Decide(
      const std::vector<algebra::PlanNode*>& candidates,
      const CostModel& cost) const;

 private:
  PolicyConfig config_;
};

/// \brief Total estimated bytes of the leaves under `node` — what the plan
/// already carries before evaluation.
double LeafBytes(const algebra::PlanNode& node, const CostModel& cost);

}  // namespace mqp::optimizer
