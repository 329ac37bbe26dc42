// Discrete-event network simulator — the deterministic reference
// implementation of net::Transport (see net/transport.h; the threaded
// and TCP backends live in src/runtime/).
//
// Substitution for the paper's real wide-area deployment (see DESIGN.md):
// peers exchange messages whose delivery latency is propagation delay plus
// serialized-size/bandwidth, and the simulator tracks the quantities the
// paper's claims are about — messages, bytes, hops and latency.
//
// The scheduler is sized for million-peer populations (DESIGN.md §7): a
// calendar queue over a slab/free-list event pool gives ~O(1) enqueue and
// an allocation-free steady path (message deliveries are stored inline,
// never erased into std::function). Events dispatch in strict (time, seq)
// order; tests/substrate_test.cc checks the queue against a
// std::priority_queue over the same keys.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/calendar_queue.h"
#include "net/event_pool.h"
#include "net/kind_table.h"
#include "net/message.h"
#include "net/transport.h"

namespace mqp::net {

/// \brief Link parameters, the same for every pair of peers.
struct LinkParams {
  double latency_seconds = 0.020;     ///< propagation delay
  double bytes_per_second = 1.25e6;   ///< ~10 Mbit/s
};

/// \brief The simulator: event queue + registered peers + failure state.
/// Everything runs on the single thread that calls Run(); stats() and
/// stats() const are therefore one and the same object.
class Simulator : public Transport {
 public:
  Simulator() = default;

  /// Attaches `node` (not owned); returns its id. Addresses look like
  /// "10.0.0.<id>:9020" and are cached at registration.
  PeerId Register(PeerNode* node) override;

  /// Number of registered peers.
  size_t size() const override { return nodes_.size(); }

  /// The synthetic network address of a peer (pure computation; callers
  /// holding a simulator should prefer the cached Address()).
  static std::string AddressOf(PeerId id);

  /// The cached address of a registered peer — no allocation per call.
  /// (Unregistered ids fall back to a computed scratch string.)
  const std::string& Address(PeerId id) const override;

  /// Reverse of AddressOf; error if malformed or unknown. Takes a view:
  /// resolve paths pass subfields of catalog entries without copying.
  Result<PeerId> Lookup(std::string_view address) const override;

  double now() const override { return now_; }

  void set_default_link(LinkParams link) {
    link_ = link;
    inv_default_bps_ = 1.0 / link.bytes_per_second;
  }

  /// Marks a peer down: messages to it are silently dropped (§4.2
  /// "R may be unavailable at some point").
  void Fail(PeerId id) override;
  void Recover(PeerId id) override;
  bool IsFailed(PeerId id) const override;

  /// Enqueues a message for delivery. Messages to failed or unknown
  /// peers — and messages *from* failed peers (a down peer originates no
  /// traffic) — are counted as sent but never delivered.
  void Send(Message msg) override;

  /// Schedules `fn` at absolute time `when` (>= now).
  void Schedule(double when, std::function<void()> fn) override;

  /// Runs until the event queue drains or `max_time` passes.
  /// Returns the number of events processed.
  size_t Run(double max_time = 1e9) override;

  /// True if no events are pending.
  bool Idle() const override { return calendar_.empty(); }

  /// Pending (scheduled, not yet dispatched) events.
  size_t pending_events() const { return calendar_.size(); }

  /// The event pool; benches read hit rates and slab high-water marks
  /// from here.
  const EventPool& event_pool() const { return pool_; }

  /// Approximate heap bytes held by the substrate itself: peer tables,
  /// cached addresses, event slab and calendar buckets.
  /// The scale bench divides this by size() for its bytes/peer claim.
  size_t SubstrateBytes() const;

  NetStats& stats() override { return stats_; }
  const NetStats& stats() const override { return stats_; }

  /// Optional tap invoked for every Send (after stats are updated);
  /// benches use it to trace per-hop message sizes.
  void set_on_send(std::function<void(const Message&)> fn) {
    on_send_ = std::move(fn);
  }

 private:
  double Latency(size_t bytes) const;

  /// Acquires, stamps and links a pooled event; tallies substrate stats.
  /// Returns the slot index for the caller to fill (pool msg or fn).
  uint32_t EnqueuePooled(double when, SimEvent::Kind kind);

  std::vector<PeerNode*> nodes_;
  std::vector<bool> failed_;
  std::vector<std::string> addresses_;  ///< id → cached "10.0.0.<id>:9020"
  LinkParams link_;
  /// 1 / link_.bytes_per_second, cached: Latency() sits on the per-event
  /// hot path and a multiply is several times cheaper than the divide.
  double inv_default_bps_ = 1.0 / LinkParams{}.bytes_per_second;
  EventPool pool_;
  CalendarQueue calendar_;
  double now_ = 0;
  uint64_t seq_ = 0;
  NetStats stats_;
  std::function<void(const Message&)> on_send_;
};

}  // namespace mqp::net
