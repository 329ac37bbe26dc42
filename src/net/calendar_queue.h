// Calendar-queue event scheduler (Brown '88) over the event pool.
//
// The old substrate kept every pending event in one binary heap:
// O(log n) pushes and pops that, with millions of pending gossip ticks
// and in-flight messages, walk ~20 cache-cold levels per operation. A
// calendar queue hashes events by time into "days" (buckets) of one
// "year" (the bucket array): enqueue appends to the bucket chain in
// O(1), dequeue scans forward from the current day. The bucket count
// doubles/halves with occupancy and the day width is re-derived from
// the live event span, so both operations stay ~O(1) across load
// levels.
//
// Chains are *lazily* sorted: Push always tail-appends and only marks
// the bucket dirty when the append broke (time, seq) order; PopMin
// sorts a dirty chain whole, later years' events included, each time the
// cursor reaches it. Simulated traffic makes this the difference between
// O(1) and quadratic pushes — thousands of peers whose delivery times
// are near-ties (equal up to floating-point residue) interleave their
// arrivals, and a sorted-insert discipline would walk half of such a
// chain per push. An event is not sorted only once, though: any
// out-of-order push dirties its chain again (a near-tie, or anything
// landing in a bucket that holds a far-future event), and the next visit
// sorts every event still waiting there. The 1000-seed queue sweep in
// tests/substrate_test.cc passes 64.5M events through SortBucket for
// 1.35M pushes, ~48 per push.
//
// Ordering is bit-exact with the binary heap: events pop in strict
// (time, seq) order. Equal times always land in the same bucket (the
// virtual day index is a pure function of time), and a day's chain is
// sorted by (time, seq) before anything pops from it, so the FIFO
// tie-break survives unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "net/event_pool.h"

namespace mqp::net {

class CalendarQueue {
 public:
  CalendarQueue() { Init(kMinBuckets, kDefaultWidth); }

  /// Links pooled event `idx` (time/seq already set) into its bucket.
  void Push(EventPool& pool, uint32_t idx);

  /// Unlinks and returns the (time, seq)-minimum event, or kNilEvent when
  /// empty. The returned slot is the caller's to dispatch and release.
  uint32_t PopMin(EventPool& pool);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Times the bucket array was rebuilt (grow or shrink).
  uint64_t resizes() const { return resizes_; }

  /// Cursor-advance steps over empty/future days during PopMin, and the
  /// times a fruitless whole-year walk fell back to a direct-search jump.
  /// High ratios of either to pops mean the day width is mis-sized.
  uint64_t empty_steps() const { return empty_steps_; }
  uint64_t min_jumps() const { return min_jumps_; }

  /// Events passed through lazy chain sorts. Zero on monotone traffic
  /// (every append lands in order); otherwise an event counts once per
  /// sort of the chain it waits in, which can be many times.
  uint64_t chain_sort_events() const { return chain_sort_events_; }

  /// Approximate heap footprint of the bucket arrays.
  size_t ApproxBytes() const {
    return (heads_.capacity() + tails_.capacity()) * sizeof(uint32_t) +
           dirty_.capacity() * sizeof(uint8_t) +
           scratch_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr size_t kMinBuckets = 16;
  /// Bucket-array cap: 4M buckets (32 MB of links) — far past the point
  /// where occupancy-1 sizing matters, and it bounds resize cost.
  static constexpr size_t kMaxBuckets = size_t{1} << 22;
  /// Initial day width: a quarter of the default link latency, so the
  /// very first messages spread over a few buckets.
  static constexpr double kDefaultWidth = 0.005;
  /// Longest run of empty days one pop may cross before the queue
  /// concludes the days are too narrow and rebuilds with a re-estimated
  /// width.
  static constexpr size_t kMaxEmptyWalk = 256;

  /// The virtual day an event at time `t` belongs to. Monotone in t, and
  /// a pure function of it: equal times share a day, and day order is
  /// time order.
  uint64_t VIndex(double t) const { return static_cast<uint64_t>(t / width_); }

  void Init(size_t nbuckets, double width);
  /// Rebuilds with `nbuckets` buckets. Width is `forced_width` when > 0,
  /// otherwise re-derived from the live events (mean separation of
  /// adjacent distinct times, so tie clusters don't shred the year).
  void Resize(EventPool& pool, size_t nbuckets, double forced_width = 0);
  /// Sorts bucket `b`'s chain by (time, seq) and clears its dirty bit.
  void SortBucket(EventPool& pool, size_t b);
  /// Repositions the cursor on the true minimum (sparse-year fallback).
  void JumpToMin(const EventPool& pool);

  std::vector<uint32_t> heads_;  ///< per-bucket chain head
  std::vector<uint32_t> tails_;  ///< chain tail: O(1) appends
  std::vector<uint8_t> dirty_;   ///< chain not (time, seq)-sorted
  std::vector<uint32_t> scratch_;  ///< SortBucket workspace (reused)
  size_t nbuckets_ = 0;          ///< power of two
  uint64_t mask_ = 0;            ///< nbuckets - 1
  double width_ = kDefaultWidth; ///< seconds per day
  uint64_t cur_vindex_ = 0;      ///< dequeue cursor; <= min live vindex
  size_t count_ = 0;
  /// Non-empty buckets. The bucket array is sized to *this*, not to
  /// count_: simulated traffic piles thousands of tied events onto a few
  /// distinct days, and sizing to occupancy keeps heads_/tails_ small
  /// enough to stay cache-resident instead of spraying misses over a
  /// multi-megabyte array that is 99% nil.
  size_t occupied_ = 0;
  /// Push/Pop operations since the last rebuild. The empty-walk rebuild
  /// is gated on this having reached a fraction of the live count, so a
  /// distribution the estimator can't nail (heavy mixtures) degrades to
  /// occasional long walks instead of resize thrash — a rebuild sorts
  /// every live event, so back-to-back rebuilds at millions of pending
  /// events would dwarf the walks they were meant to save.
  uint64_t ops_since_resize_ = 0;
  uint64_t resizes_ = 0;
  uint64_t empty_steps_ = 0;
  uint64_t min_jumps_ = 0;
  uint64_t chain_sort_events_ = 0;
};

}  // namespace mqp::net
