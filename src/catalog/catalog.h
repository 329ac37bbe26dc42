// The local catalog each peer maintains (paper §2: "we resolve URNs by
// consulting a catalog, which we maintain locally at each peer. A catalog
// contains mappings from URNs to (sets of) URLs, or from URNs to servers
// that know how to resolve them"), extended with the interest-area index
// entries of §3 and the intensional statements of §4.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "catalog/area_index.h"
#include "catalog/intension.h"
#include "common/result.h"
#include "ns/hierarchy.h"
#include "ns/interest.h"
#include "ns/urn.h"

namespace mqp::catalog {

/// \brief One concrete source inside a binding alternative.
struct SourceRef {
  HoldingLevel level = HoldingLevel::kBase;
  std::string server;        ///< peer address
  std::string xpath;         ///< collection id for base-level sources
  ns::InterestArea portion;  ///< requested ∩ offered (what this source serves)
  int staleness_minutes = 0;

  /// Specificity of the catalog entry's full area — ties between
  /// equally-covering referrals go to the more specific server (e.g. a
  /// state index over the top meta server).
  size_t entry_specificity = 0;

  bool operator==(const SourceRef& other) const = default;
};

/// \brief One alternative of a binding: the *union* of its sources covers
/// the request (as far as this catalog knows).
struct BindingAlternative {
  std::vector<SourceRef> sources;

  /// Set semantics for the union: true when the sources are known
  /// replicas (an intensional statement proved their overlap), so
  /// duplicated items must be collapsed.
  bool distinct = false;

  bool operator==(const BindingAlternative& other) const = default;
};

/// \brief The result of resolving a URN: alternatives joined by the
/// "conjoint union" operator `|` (§4.2) — any one alternative suffices.
struct Binding {
  std::string urn;
  std::vector<BindingAlternative> alternatives;

  /// Item field names corresponding to the namespace dimensions (e.g.
  /// {"location", "category"}). When non-empty, BindingToPlan guards each
  /// base source with an area predicate over these fields, so collections
  /// broader than the request are filtered down to the requested portion.
  std::vector<std::string> dimension_fields;

  bool empty() const { return alternatives.empty(); }

  /// The binding with every alternative touching an excluded server
  /// removed — the failover step (DESIGN.md §9): a resolving peer drops
  /// alternatives routed through dead or suspect servers and binds via
  /// the next one. An alternative is kept only if *none* of its sources
  /// is excluded (the union of a partial alternative would silently
  /// under-answer). May return an empty binding; callers fall back to
  /// the unfiltered one in that case.
  Binding WithoutServers(
      const std::function<bool(const std::string& server)>& excluded) const;

  /// Renders like the paper, e.g.
  /// "base[(P,CDs)]@R{30} | base[(P,CDs)]@R + base[(P,CDs)]@S".
  std::string ToString() const;
};

/// \brief Converts a binding into the plan fragment that replaces the URN
/// leaf: Or over alternatives, Union over each alternative's sources.
/// Base-level sources become URL leaves (staleness annotated), guarded by
/// an area predicate when dimension_fields is set; index-level sources
/// become URN leaves with a resolver hint (the MQP travels there for
/// further binding).
algebra::PlanNodePtr BindingToPlan(const Binding& binding);

/// \brief Predicate asserting that an item lies inside `area`: an Or over
/// cells of per-dimension kHasPrefix tests against `dimension_fields`.
/// Returns nullptr when the area is all-covering (no filter needed).
algebra::ExprPtr AreaPredicate(const ns::InterestArea& area,
                               const std::vector<std::string>& fields);

/// \brief One catalog/index entry: a server known to hold data (base) or
/// index information (index) for an interest area.
struct IndexEntry {
  HoldingLevel level = HoldingLevel::kBase;
  ns::InterestArea area;
  std::string server;
  std::string xpath;  ///< base entries: the collection id at `server`
  int delay_minutes = 0;

  bool operator==(const IndexEntry& other) const = default;
};

/// \brief Resolution instrumentation (cumulative). The peer reports the
/// resolve group of the counter table (common/counters.h) as deltas
/// after each resolve; area_resolves and binding_cache_misses stay here.
struct ResolveStats {
  uint64_t area_resolves = 0;           ///< ResolveArea calls (incl. cache hits)
  uint64_t resolve_index_probes = 0;    ///< AreaIndex bucket probes
  uint64_t resolve_entries_scanned = 0; ///< entries overlap-tested per resolve
  uint64_t binding_cache_hits = 0;
  uint64_t binding_cache_misses = 0;
};

/// \brief A peer's local catalog.
///
/// Interest-area entries live in stable slots indexed by an AreaIndex
/// (coverage search probes O(log n + candidates) instead of scanning) and
/// by server (departure/gossip removal never rescans). Area resolutions
/// are memoized in a binding cache invalidated by a mutation stamp — the
/// same pattern the wire layer uses for cached plan serialization.
class Catalog {
 public:
  // --- named URNs (urn:ForSale:Portland-CDs style) ----------------------------

  /// Maps `urn` to a collection at `server`. Multiple mappings union.
  void AddNamedMapping(const std::string& urn, const std::string& server,
                       const std::string& xpath);

  /// Records that `server` knows how to resolve `urn`.
  void AddNamedReferral(const std::string& urn, const std::string& server);

  // --- interest-area entries ---------------------------------------------------

  void AddEntry(IndexEntry entry);

  /// Snapshot of the live interest-area entries in insertion order.
  /// Copies every entry — fine for tests and joins, not for hot loops;
  /// prefer ForEachEntry for iteration.
  std::vector<IndexEntry> entries() const;

  /// Visits every live entry in insertion order without copying.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (uint32_t id : LiveSlotsBySeq()) fn(slots_[id].entry);
  }

  /// Number of live interest-area entries.
  size_t entry_count() const { return entry_keys_.size(); }

  /// Removes every entry naming `server` (peer departure), including
  /// named mappings and any intensional statement referencing it — a
  /// statement about a departed server can no longer be acted on.
  void RemoveServer(const std::string& server);

  /// Removes the exact interest-area entry (sync tombstones/expiry).
  /// Returns true if an entry was removed.
  bool RemoveEntry(const IndexEntry& entry);

  /// Removes every intensional statement whose lhs or rhs names `server`
  /// (it can no longer be acted on once the server is gone). Returns how
  /// many were removed.
  size_t RemoveStatementsNaming(const std::string& server);

  /// Removes the named mapping/referral for `urn` matching `entry`'s
  /// (level, server, xpath). Returns true if one was removed.
  bool RemoveNamedEntry(const std::string& urn, const IndexEntry& entry);

  // --- intensional statements ---------------------------------------------------

  void AddStatement(IntensionalStatement st);
  const std::vector<IntensionalStatement>& statements() const {
    return statements_;
  }

  /// When false, Resolve ignores intensional statements: the one §4
  /// ablation switch (bench C3, PaperClaims.C3StatementsKeepOneBaseVisit).
  /// Statements are stored either way.
  void set_use_statements(bool use) {
    use_statements_ = use;
    TouchMutation();
  }

  /// Ablation knob for the (urn, request-area) binding cache.
  void set_use_binding_cache(bool use) {
    use_binding_cache_ = use;
    if (!use) binding_cache_.clear();
  }

  const ResolveStats& resolve_stats() const { return resolve_stats_; }

  /// Item fields corresponding to the namespace dimensions, copied into
  /// every binding this catalog produces (see Binding::dimension_fields).
  void set_dimension_fields(std::vector<std::string> fields) {
    dimension_fields_ = std::move(fields);
    TouchMutation();
  }
  const std::vector<std::string>& dimension_fields() const {
    return dimension_fields_;
  }

  /// Declares the catalog owner's authority (§3.3). ResolveArea only
  /// produces a binding when its sources *cover* the request, or when the
  /// owner is authoritative for it — a partial binding would silently
  /// drop the uncovered remainder (§4.1's completeness problem).
  void SetAuthority(ns::InterestArea interest, bool authoritative) {
    authority_interest_ = std::move(interest);
    authoritative_ = authoritative;
    TouchMutation();
  }

  /// The owner's own address. With dynamic maintenance a catalog can
  /// contain referrals to its own peer (gossiped index entries);
  /// ResolveArea must skip those — "travel to myself for more detail" is
  /// a dead end, the owner is already binding with full local knowledge.
  void set_owner(std::string address) {
    owner_ = std::move(address);
    TouchMutation();
  }
  const std::string& owner() const { return owner_; }

  /// Attaches the namespace (not owned) for §3.5's approximation: a
  /// requested category unknown to the hierarchies is rewritten to its
  /// deepest known ancestor — "a possible loss of precision, but no loss
  /// of recall" (Walker [W80]).
  void set_hierarchies(const ns::MultiHierarchy* hierarchies) {
    hierarchies_ = hierarchies;
    TouchMutation();
  }

  /// The request after §3.5 approximation (identity when no namespace is
  /// attached or every category is known).
  ns::InterestArea ApproximateRequest(const ns::InterestArea& request) const;

  // --- resolution ---------------------------------------------------------------

  /// Resolves any URN text: interest-area URNs via coverage search +
  /// statements; named URNs via mappings/referrals. An empty binding means
  /// this catalog knows nothing relevant.
  Result<Binding> Resolve(const std::string& urn_text) const;

  /// Interest-area resolution (the paper's §3.4/§4 machinery).
  Binding ResolveArea(const ns::InterestArea& request,
                      const std::string& urn_text) const;

 private:
  /// Stable storage for one interest-area entry. Slots are reused after
  /// removal (free list); `seq` preserves insertion order across reuse —
  /// the redundancy pass's recency tie-break depends on it.
  struct Slot {
    IndexEntry entry;
    uint64_t seq = 0;
    bool live = false;
  };

  /// Exact-identity key for dedup and O(1) removal.
  static std::string EntryKey(const IndexEntry& entry);

  /// Any semantic mutation bumps the stamp; the binding cache is flushed
  /// lazily when the stamp (or the attached namespace) moved.
  void TouchMutation() { ++mutation_stamp_; }

  /// (mutation stamp, namespace version): the binding cache's validity
  /// token. A hierarchy Add after attach changes ApproximateRequest.
  std::pair<uint64_t, uint64_t> CacheEpoch() const;

  /// Frees slot `id`, unhooking it from every index structure.
  void RemoveSlot(uint32_t id);

  /// Live slot ids sorted by insertion sequence.
  std::vector<uint32_t> LiveSlotsBySeq() const;

  /// Live slot ids the area index finds for `request`, in insertion
  /// order (a superset of the overlapping entries).
  std::vector<uint32_t> CandidateSlots(const ns::InterestArea& request) const;

  /// The xpath of the first (insertion order) live entry at `server`
  /// overlapping `request`; "" when none. Replaces the linear scans in
  /// the containment-statement path.
  std::string FirstXPathFor(const std::string& server,
                            const ns::InterestArea& request) const;

  /// ResolveArea minus the binding cache.
  Binding ResolveAreaUncached(const ns::InterestArea& raw_request,
                              const std::string& urn_text) const;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  bool slots_reused_ = false;  ///< a freed slot was re-filled (see LiveSlotsBySeq)
  std::unordered_map<std::string, uint32_t> entry_keys_;  // EntryKey → slot
  std::unordered_map<std::string, std::vector<uint32_t>> by_server_;
  AreaIndex area_index_;
  uint64_t next_seq_ = 0;
  uint64_t mutation_stamp_ = 0;

  std::vector<IntensionalStatement> statements_;
  std::map<std::string, std::vector<IndexEntry>> named_;  // urn → entries
  std::vector<std::string> dimension_fields_;
  std::string owner_;
  ns::InterestArea authority_interest_;
  const ns::MultiHierarchy* hierarchies_ = nullptr;
  bool authoritative_ = false;
  bool use_statements_ = true;
  bool use_binding_cache_ = true;

  // Memoized ResolveArea results keyed by (urn, raw request area),
  // flushed when CacheEpoch() moves; bounded by wholesale clear.
  static constexpr size_t kBindingCacheMax = 4096;
  mutable std::unordered_map<std::string, Binding> binding_cache_;
  mutable std::pair<uint64_t, uint64_t> binding_cache_epoch_{0, 0};
  mutable ResolveStats resolve_stats_;
};

}  // namespace mqp::catalog
