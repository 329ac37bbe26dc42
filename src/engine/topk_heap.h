// Shared top-k machinery for local TopN evaluation and the distributed
// top-k protocol (ADiT-style threshold early termination, DESIGN.md §10).
//
// The contract that makes the distributed path bit-identical to the
// unbounded reference is a single total order shared by every
// participant: entries compare by order key (numeric-aware), then by
// (leaf, idx) — the leaf is the sub-plan's DFS position under the
// consumer's TopN and idx is the item's original position within that
// leaf, which together reproduce the reference's arrival sequence.
// Servers ship score-ordered prefixes cut against the consumer's current
// k-th bound (TopKPruned), and the consumer merges them into a TopKHeap
// whose final contents match stable_sort + truncate over the full union.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/histogram.h"

namespace mqp::engine {

/// What a TopN consumer asks of a remote source: order and limit.
struct TopKSpec {
  std::string field;
  bool ascending = true;
  uint64_t k = 0;
};

/// The consumer's current k-th entry, as much of it as a remote server
/// needs for sound pruning. `leaf` disambiguates key ties: an entry
/// equal on key wins against the bound only from a strictly smaller
/// leaf (within one leaf, every not-yet-shipped item has a larger idx
/// than anything already shipped, so idx never needs to travel).
struct TopKBoundRef {
  bool present = false;
  std::string key;
  uint32_t leaf = 0;
};

/// True when an entry with this (key, leaf) — and any idx not yet
/// shipped — can never displace the bound entry. Sound under bound
/// staleness: bounds only tighten, so pruning against an old bound only
/// prunes less.
bool TopKPruned(std::string_view key, uint32_t leaf, bool ascending,
                const TopKBoundRef& bound);

/// \brief Bounded (or unbounded, for plain ORDER BY) top-k heap keyed by
/// (key, leaf, idx). Keeps the k best entries; Finish() returns them in
/// final order.
class TopKHeap {
 public:
  /// `k == nullopt` keeps everything (sort-only mode).
  TopKHeap(std::optional<uint64_t> k, bool ascending);

  /// Inserts if the entry beats the current k-th; no-op otherwise.
  void Push(std::string_view key, uint32_t leaf, uint64_t idx,
            const algebra::Item& item);

  /// True when the heap holds k entries (always false in sort-only mode,
  /// trivially true for k == 0).
  bool full() const;

  /// The current k-th bound; present iff full() and k > 0.
  TopKBoundRef Bound() const;

  /// True when (key, leaf) could still enter the heap. Exact for
  /// not-yet-shipped entries of `leaf` (see TopKBoundRef).
  bool WouldAccept(std::string_view key, uint32_t leaf) const;

  size_t size() const { return heap_.size(); }

  /// Sorts and returns the retained items, best first. The heap is
  /// consumed.
  algebra::ItemSet Finish();

 private:
  struct Entry {
    std::string key;
    uint32_t leaf;
    uint64_t idx;
    algebra::Item item;
  };

  bool BetterKey(std::string_view key, uint32_t leaf, uint64_t idx,
                 const Entry& than) const;

  std::optional<uint64_t> k_;
  bool ascending_;
  std::vector<Entry> heap_;  // max-heap on "better": front = current worst
};

/// One score-ordered prefix slice of a server-side collection, cut
/// against the consumer's bound and k, windowed by [cont, cont+batch).
struct TopKSlice {
  std::vector<size_t> ship;  ///< indices into `items`, score order
  uint64_t next_cont = 0;    ///< continuation token for the next request
  bool more = false;         ///< eligible rows remain past this window
  std::string next_key;      ///< key at next_cont (valid when more)
  uint64_t pruned = 0;       ///< rows this terminal slice proved dead
  uint64_t total = 0;        ///< items.size()
};

/// Computes the slice a bounded subquery reply ships. A source
/// never needs to ship more than k rows (its own k+1-th is beaten by k
/// better rows from the same leaf), and nothing past the first
/// bound-pruned position in score order. Terminal slices (more=false)
/// credit the rows they prove dead to EngineStats::topk_rows_pruned;
/// non-terminal slices credit nothing, so re-requests never double
/// count. `batch == 0` means no window (ship the whole eligible prefix).
TopKSlice BoundedPrefix(const algebra::ItemSet& items, const TopKSpec& spec,
                        const TopKBoundRef& bound, uint32_t leaf,
                        uint64_t cont, uint64_t batch);

/// Migration-path truncation: when an annotated sub-plan is evaluated
/// locally (policy chose in-place evaluation rather than a bounded
/// fetch), its materialized items can still be cut to the eligible
/// prefix before travelling onward. Bit-equivalent downstream: the
/// score-ordered prefix preserves equal-key relative order and the
/// consumer's TopN ignores cross-key order. Dropped rows are credited
/// to EngineStats::topk_rows_pruned.
algebra::ItemSet TopKTruncate(const algebra::ItemSet& items,
                              const TopKSpec& spec,
                              const TopKBoundRef& bound, uint32_t leaf);

}  // namespace mqp::engine
