#include "wire/plan_codec.h"

#include <chrono>

#include "xml/node.h"

namespace mqp::wire {

SerializedPlan SerializePlanShared(const algebra::Plan& plan,
                                   PeerReportedCounters* stats) {
  if (plan.WireCacheValid()) {
    if (stats != nullptr) ++stats->forwards_without_reserialize;
    return {plan.cached_wire(), /*reused=*/true};
  }
  auto bytes = net::MakePayload(algebra::SerializePlan(plan));
  plan.AttachWireCache(bytes);
  if (stats != nullptr) ++stats->plan_serializations;
  return {std::move(bytes), /*reused=*/false};
}

Result<algebra::Plan> ParsePlanShared(net::Payload bytes,
                                      PeerReportedCounters* stats) {
  if (bytes == nullptr) bytes = net::MakePayload("");
  const uint64_t nodes_before = xml::DomNodesBuilt();
  const auto started = std::chrono::steady_clock::now();
  MQP_ASSIGN_OR_RETURN(auto plan, algebra::ParsePlan(bytes));
  const auto elapsed = std::chrono::steady_clock::now() - started;
  plan.AttachWireCache(std::move(bytes));
  if (stats != nullptr) {
    ++stats->plan_parses;
    stats->dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
    stats->plan_decode_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
  }
  return plan;
}

}  // namespace mqp::wire
