// Cached plan (de)serialization for the wire layer.
//
// Serialization of the mutant query plan is the per-hop hot path: the
// plan's XML body is the dominant message cost, and a hop that merely
// routes a plan (binds nothing, evaluates nothing) used to re-serialize
// it from scratch. These helpers consult Plan's serialization cache
// (algebra/plan.h): a freshly parsed plan carries the exact buffer it
// arrived in, so forwarding it unchanged reuses that buffer — zero
// serialization work and zero copies. Decoding goes through the
// streaming token codec (algebra/plan_xml.h): no intermediate DOM is
// built, and carried <data> items stay verbatim views into the shared
// incoming buffer until read, so a hop re-sends them without decoding
// or re-encoding them. ParsePlanShared instruments the decode
// (plan_parses, dom_nodes_built via xml::DomNodesBuilt deltas — only the
// items of non-canonical runs, which decode eagerly — and plan_decode_ns
// on the steady clock). Both helpers count into the wire group of the
// counter table (common/counters.h): pass a NetStats shard directly, or a
// local PeerReportedCounters that the peer then reports through its
// peer::CounterSink.
#pragma once

#include "algebra/plan.h"
#include "algebra/plan_xml.h"
#include "net/transport.h"

namespace mqp::wire {

/// \brief Result of SerializePlanShared: the wire bytes plus whether they
/// came from the cache (no serialization performed).
struct SerializedPlan {
  net::Payload bytes;
  bool reused = false;
};

/// \brief Returns the plan's wire form, serializing only if the plan
/// mutated since its cached bytes were produced (or none are attached).
/// Counts into `stats` when non-null.
SerializedPlan SerializePlanShared(const algebra::Plan& plan,
                                   PeerReportedCounters* stats = nullptr);

/// \brief Parses a plan from shared wire bytes and attaches them as the
/// plan's cached serialization, so forwarding the plan unchanged reuses
/// the incoming buffer. Verbatim data leaves borrow the same buffer.
/// Counts into `stats` when non-null.
Result<algebra::Plan> ParsePlanShared(net::Payload bytes,
                                      PeerReportedCounters* stats = nullptr);

}  // namespace mqp::wire
