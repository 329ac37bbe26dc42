// LocalStore: a base server's named collections of XML data.
//
// Collections are addressed the way the paper's index entries do
// (§3.2): an XPath expression over the server's data document, e.g.
// "/data[@id='245']". Logically the store still *is* that document,
//
//   <store>
//     <data id="245">ITEM*</data>
//     <data id="246">ITEM*</data>
//   </store>
//
// but the storage is a keyed map of shared immutable Items: the steady
// path (a collection-id fetch, with or without trailing item steps)
// answers straight from the map with shared refs — zero deep clones,
// zero DOM construction. XPaths outside that shape (wildcards, '//',
// exotic predicates) fall back to a lazily materialized DOM view of the
// document above, rebuilt only after mutations, whose matches are
// deep-copied out. The store this one replaced, which answered every
// fetch that way, is the reference in tests/support/cloning_store.h.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "common/result.h"
#include "engine/operator.h"
#include "xml/node.h"

namespace mqp::xml {
class XPath;
}  // namespace mqp::xml

namespace mqp::engine {

/// \brief In-memory collection store implementing DataSource.
class LocalStore : public DataSource {
 public:
  LocalStore();

  /// Adds (or extends) collection `id` with `items` (shared, not copied).
  /// Non-element items become part of the document (visible to "[.=text]"
  /// predicates via the view) but are never emitted by readers.
  void AddCollection(const std::string& id, const algebra::ItemSet& items);

  /// Replaces collection `id`.
  void ReplaceCollection(const std::string& id,
                         const algebra::ItemSet& items);

  /// Removes collection `id`; no-op if absent. O(1): collections are
  /// keyed, not scanned.
  void RemoveCollection(const std::string& id);

  /// The XPath identifier for collection `id`: "/data[@id='ID']". The id
  /// is quoted with whichever quote character it does not contain, so ids
  /// carrying ']', spaces or path separators survive the round trip
  /// through XPath::Parse. (An id containing *both* quote characters is
  /// not representable in XPath-lite; don't mint such ids.)
  static std::string CollectionXPath(const std::string& id);

  /// DataSource: `url` is ignored (the caller routed to this store);
  /// `xpath` selects collections or elements. An empty xpath returns
  /// every item of every collection.
  Result<algebra::ItemSet> Fetch(const std::string& url,
                                 const std::string& xpath) override;

 private:
  struct Collection {
    uint64_t seq = 0;  // insertion order (monotonic; survives removals)
    algebra::ItemSet items;
    // True when some item is an element named "id": the legacy predicate
    // "[id=...]" would compare that child's text instead of the id
    // attribute, so the keyed fast path must stand aside (see Fetch).
    bool has_id_element_item = false;
    // True when some item is not an element. Such items are part of the
    // document (the DOM view carries them for "[.=text]" predicates) but
    // are never emitted — readers walk element children.
    bool has_non_element_item = false;
  };

  /// Collections ordered by insertion sequence, with their ids.
  std::vector<std::pair<const std::string*, const Collection*>> Ordered()
      const;

  /// Appends `coll`'s element items to `out`, shared.
  static void AppendItems(const Collection& coll, algebra::ItemSet* out);

  /// Answers a collection-shaped xpath from the keyed map with shared
  /// refs; returns false when the shape doesn't apply (caller falls back
  /// to the DOM view).
  bool FetchFast(const xml::XPath& xp, algebra::ItemSet* out) const;

  /// The DOM view of the logical <store> document, rebuilt lazily after
  /// mutations (deep-copies every item; counts EngineStats::items_cloned).
  const xml::Node& View() const;

  std::unordered_map<std::string, Collection> collections_;
  uint64_t next_seq_ = 0;
  uint64_t version_ = 0;  // bumped on every mutation; invalidates view_
  mutable std::unique_ptr<xml::Node> view_;
  mutable uint64_t view_version_ = 0;
};

}  // namespace mqp::engine
