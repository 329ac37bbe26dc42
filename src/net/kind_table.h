// Dense interning of message kinds (PR 3's interning pattern applied to
// the wire vocabulary).
//
// Message kinds are a tiny, closed set of short routing tags ("mqp",
// "register", "sync-digest", ...). Interning them to dense KindIds lets
// the simulator's per-message accounting update two flat arrays instead
// of two string-keyed hash maps, and lets reports iterate kinds in a
// stable sorted order without rebuilding an ordered map per print.
//
// The table is process-wide: ids are assigned in first-intern order and
// never recycled, so NetStats from different Simulator instances index
// the same table and stay comparable.
//
// Thread safety: the table is guarded by a shared mutex — concurrent
// senders on runtime::ThreadedRuntime / runtime::TcpTransport intern and
// look up kinds freely. Ids and the name views returned by KindNameOf
// are stable for the life of the process (names live in a deque and are
// never erased), so holding them across interns is safe. KindCounters
// instances themselves are NOT synchronized: each belongs to one
// NetStats shard written by one thread (see net/transport.h).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace mqp::net {

using KindId = uint32_t;
inline constexpr KindId kNoKind = static_cast<KindId>(-1);

/// Returns the dense id for `kind`, interning it on first sight.
KindId InternKind(std::string_view kind);

/// The id for `kind`, or kNoKind if it was never interned.
KindId FindKind(std::string_view kind);

/// The kind string for `id` ("" if out of range). The view is stable for
/// the life of the process.
std::string_view KindNameOf(KindId id);

/// All interned ids ordered by kind name. The order is cached and
/// recomputed only after a new kind was interned; returned by value so a
/// concurrent intern can never invalidate an iteration in progress.
std::vector<KindId> SortedKindIds();

/// \brief Per-kind counters over the interned table: a dense array
/// indexed by KindId with a small map-compatible lookup API, so existing
/// `stats.messages_by_kind.at("mqp")` / `.find(kind)` call sites keep
/// working against flat-array storage.
class KindCounters {
 public:
  /// Map-compatible view of one (kind → count) entry. An invalid Ref is
  /// end(): `find(k) == end()` means the kind was never interned.
  struct Ref {
    std::string_view first;
    uint64_t second = 0;
    bool valid = false;
    const Ref* operator->() const { return this; }
    friend bool operator==(const Ref& a, const Ref& b) {
      return a.valid == b.valid;
    }
    friend bool operator!=(const Ref& a, const Ref& b) { return !(a == b); }
  };

  /// The counter slot for `id` (grows the dense array on demand). This is
  /// the Send hot path: one bounds check + one array index.
  uint64_t& Slot(KindId id) {
    if (id >= counts_.size()) counts_.resize(id + 1, 0);
    return counts_[id];
  }

  uint64_t Get(KindId id) const {
    return id < counts_.size() ? counts_[id] : 0;
  }

  /// The count for `kind` (0 when never counted; unlike std::map::at this
  /// never throws — absent and zero are indistinguishable to callers).
  uint64_t at(std::string_view kind) const { return Get(FindKind(kind)); }

  Ref find(std::string_view kind) const {
    const KindId id = FindKind(kind);
    if (id == kNoKind || id >= counts_.size()) return {};
    return Ref{KindNameOf(id), counts_[id], true};
  }
  Ref end() const { return {}; }

  /// Zeroes all counters, keeping the array's capacity (Clear() on the
  /// bench reset path must not reallocate).
  void clear() { counts_.assign(counts_.size(), 0); }

  /// Adds `other`'s counts into this (NetStats shard merge-on-read).
  void MergeFrom(const KindCounters& other) {
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }

  /// Visits (kind, count) pairs with count > 0 in kind-name order.
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    for (const KindId id : SortedKindIds()) {
      const uint64_t c = Get(id);
      if (c != 0) fn(KindNameOf(id), c);
    }
  }

  friend bool operator==(const KindCounters& a, const KindCounters& b) {
    const size_t n = a.counts_.size() > b.counts_.size() ? a.counts_.size()
                                                        : b.counts_.size();
    for (size_t i = 0; i < n; ++i) {
      if (a.Get(static_cast<KindId>(i)) != b.Get(static_cast<KindId>(i))) {
        return false;
      }
    }
    return true;
  }
  friend bool operator!=(const KindCounters& a, const KindCounters& b) {
    return !(a == b);
  }

 private:
  std::vector<uint64_t> counts_;
};

}  // namespace mqp::net
