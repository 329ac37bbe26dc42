// XML serialization.
#pragma once

#include <string>

#include "xml/node.h"

namespace mqp::xml {

/// \brief Serializes `node` (and subtree) to compact XML text.
std::string Serialize(const Node& node);

/// \brief Process-wide count of Serialize() calls. The engine's
/// evaluation path must never serialize items (set semantics key on
/// StructuralHash instead); tests snapshot this around a code path and
/// assert on the delta, the same pattern as DomNodesBuilt().
uint64_t SerializeCalls();

/// \brief Serialized size in bytes without materializing the string.
/// Used by the cost model and the network simulator for message sizing.
/// Cached lazily on the node (per-subtree), invalidated by any DOM
/// mutation in the process (see DomMutationEpoch) — repeated costing of
/// the same immutable items is O(1) after the first call.
size_t SerializedSize(const Node& node);

}  // namespace mqp::xml
