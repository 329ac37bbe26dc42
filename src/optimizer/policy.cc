#include "optimizer/policy.h"

namespace mqp::optimizer {

using algebra::PlanNode;

// Defer when the estimated result is more than this factor larger than
// the inputs already in the plan (evaluating would bloat the MQP).
constexpr double kGrowthLimit = 1.25;

double LeafBytes(const PlanNode& node, const CostModel& cost) {
  if (node.is_leaf()) return cost.Estimate(node).bytes;
  double total = 0;
  for (const auto& c : node.children()) {
    total += LeafBytes(*c, cost);
  }
  return total;
}

std::vector<EvalDecision> PolicyManager::Decide(
    const std::vector<PlanNode*>& candidates, const CostModel& cost) const {
  std::vector<EvalDecision> out;
  out.reserve(candidates.size());
  for (PlanNode* node : candidates) {
    EvalDecision d;
    d.subplan = node;
    d.estimate = cost.Estimate(*node);
    d.evaluate = true;
    d.reason = "evaluate";
    if (config_.enable_deferment) {
      if (d.estimate.bytes >
          static_cast<double>(config_.max_result_bytes)) {
        d.evaluate = false;
        d.reason = "defer:size";
      } else {
        const double input_bytes = LeafBytes(*node, cost);
        if (input_bytes > 0 &&
            d.estimate.bytes > kGrowthLimit * input_bytes) {
          d.evaluate = false;
          d.reason = "defer:growth";
        }
      }
      if (!d.evaluate) {
        node->annotations().cardinality =
            static_cast<uint64_t>(d.estimate.rows);
        node->annotations().bytes = static_cast<uint64_t>(d.estimate.bytes);
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace mqp::optimizer
