// Provenance: the visit history an MQP carries with it (paper §5.1).
//
// Each server that touches the plan appends an entry recording what it did
// (provided bindings, provided data, re-optimized, evaluated a
// sub-expression, or merely forwarded) and when. Provenance supports answer
// quality judgment, reward systems, meta-index updating and spoofing
// detection.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mqp::xml {
class TokenReader;
class TokenWriter;
}  // namespace mqp::xml

namespace mqp::algebra {

/// What a server did to the MQP during one visit.
enum class ProvenanceAction {
  kForwarded,    ///< routed onward without modification
  kBound,        ///< resolved URN(s) to URLs / alternatives
  kProvidedData, ///< substituted a URL with its data
  kReoptimized,  ///< rewrote the plan
  kEvaluated,    ///< reduced a sub-plan to constant data
  kSpoofed,      ///< test hook: recorded a deliberately false entry
  kShed,         ///< refused under overload; plan returned unevaluated
};

std::string_view ProvenanceActionName(ProvenanceAction a);
Result<ProvenanceAction> ProvenanceActionFromName(std::string_view name);

/// \brief One visit record.
struct ProvenanceEntry {
  std::string server;       ///< visited server's address/name
  double time = 0;          ///< simulation time of the visit (seconds)
  ProvenanceAction action = ProvenanceAction::kForwarded;
  std::string detail;       ///< e.g. which URN was bound
  int staleness_minutes = 0;  ///< currency of the information used

  bool operator==(const ProvenanceEntry& other) const = default;
};

/// \brief The full visit history of an MQP.
class Provenance {
 public:
  void Add(ProvenanceEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<ProvenanceEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  /// True iff some entry names `server`.
  bool Visited(std::string_view server) const;

  /// Number of server-to-server transfers recorded (consecutive entries at
  /// the same server count as one visit).
  size_t HopCount() const;

  /// Maximum staleness over all entries — a bound on the currency of the
  /// final answer (§5.1 "judging the quality of an answer").
  int MaxStalenessMinutes() const;

  /// Emits a <provenance> element without building a DOM.
  void EmitTokens(xml::TokenWriter* w) const;

  /// Parses a <provenance> element. Precondition: current token is the
  /// <provenance> kStartElement; returns with its kEndElement consumed.
  static Result<Provenance> FromTokens(xml::TokenReader* r);

  bool operator==(const Provenance& other) const = default;

 private:
  std::vector<ProvenanceEntry> entries_;
};

}  // namespace mqp::algebra
