// Transport: the abstract substrate peers run against.
//
// Every participant (peer::Peer, the three baselines, the sync agents)
// is written as a message handler driven by this interface: register,
// send, schedule, read the clock, observe failure state, tally stats.
// Three implementations exist (DESIGN.md §8):
//
//   * net::Simulator      — the single-threaded discrete-event reference.
//     Deterministic: a seed reproduces the exact event trace, so it
//     remains the semantics oracle every other backend is tested against.
//   * runtime::ThreadedRuntime — per-peer mailboxes drained by a thread
//     pool; virtual time advances at quiescent barriers. Same peers, all
//     cores (src/runtime/threaded_runtime.h).
//   * runtime::TcpTransport    — the same peers served over real loopback
//     sockets, wall-clock time (src/runtime/tcp_transport.h).
//
// Threading contract: a Transport implementation must deliver messages
// to any single PeerNode one at a time (handlers are single-threaded
// *per peer*, never per process), and must establish a happens-before
// edge between consecutive handler invocations of the same peer, so
// peer-confined state needs no locking. `stats()` (non-const) returns a
// write shard the calling thread may mutate freely; `stats()` (const)
// returns the merged view, exact whenever the transport is quiescent.
// For the single-threaded simulator both are one and the same object.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/counters.h"
#include "common/result.h"
#include "net/kind_table.h"
#include "net/message.h"

namespace mqp::net {

/// \brief Interface implemented by anything attached to the network.
class PeerNode {
 public:
  virtual ~PeerNode() = default;

  /// Called when a message is delivered to this node. Invocations are
  /// serialized per node (see the threading contract above).
  virtual void HandleMessage(const Message& msg) = 0;
};

/// \brief Aggregate traffic statistics: the substrate and peer-reported
/// counters of the counter table (common/counters.h), plus per-kind
/// message and byte counts.
///
/// Under a multi-threaded transport each thread owns a private shard of
/// this struct (Transport::stats() non-const) and shards are merged on
/// read (Transport::stats() const) — counters are plain uint64_t, never
/// atomics, so the per-message hot path stays contention-free.
struct NetStats : PeerReportedCounters {
  MQP_SUBSTRATE_COUNTERS(MQP_COUNTER_FIELD)
  // Flat arrays over the interned kind table (net/kind_table.h), behind a
  // map-compatible lookup API; ForEachSorted iterates kinds in stable
  // name order without per-print rebuilds.
  KindCounters messages_by_kind;
  KindCounters bytes_by_kind;

  /// Zeroes every counter while keeping the per-kind arrays' capacity —
  /// bench reset loops must not reallocate.
  void Clear() {
    MQP_NET_COUNTERS(MQP_COUNTER_ZERO)
    messages_by_kind.clear();
    bytes_by_kind.clear();
  }

  /// Adds every counter of `other` into this (shard merge-on-read).
  void MergeFrom(const NetStats& other) {
    MQP_NET_COUNTERS(MQP_COUNTER_ADD)
    messages_by_kind.MergeFrom(other.messages_by_kind);
    bytes_by_kind.MergeFrom(other.bytes_by_kind);
  }
};

/// \brief The substrate interface: registration + address book, clock,
/// message send, timer schedule, failure injection, and stats.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Attaches `node` (not owned); returns its id. Must be called from
  /// the driving thread while the transport is quiescent (before Run, or
  /// from a scheduled callback — churn joiners do the latter).
  virtual PeerId Register(PeerNode* node) = 0;

  /// Number of registered peers.
  virtual size_t size() const = 0;

  /// The cached network address of a registered peer — no allocation
  /// per call.
  virtual const std::string& Address(PeerId id) const = 0;

  /// Reverse of Address; error if malformed or unknown. Takes a view:
  /// resolve paths pass subfields of catalog entries without copying.
  virtual Result<PeerId> Lookup(std::string_view address) const = 0;

  /// The transport clock, in seconds. Simulated time for the simulator
  /// and the threaded runtime (advances at event/barrier boundaries),
  /// wall clock since construction for the TCP transport.
  virtual double now() const = 0;

  /// Enqueues a message for delivery. Messages to failed or unknown
  /// peers — and messages *from* failed peers (a down peer originates no
  /// traffic) — are counted as sent but never delivered.
  virtual void Send(Message msg) = 0;

  /// Schedules `fn` at absolute time `when` (>= now).
  virtual void Schedule(double when, std::function<void()> fn) = 0;

  /// Schedules `fn` at `when`, declaring that it touches only state
  /// confined to peer `owner`. Backends that run handlers concurrently
  /// (the TCP transport) use the hint to serialize the callback with
  /// `owner`'s message handlers; the default is plain Schedule.
  virtual void ScheduleFor(PeerId owner, double when,
                           std::function<void()> fn) {
    (void)owner;
    Schedule(when, std::move(fn));
  }

  /// Marks a peer down: messages to it are silently dropped (§4.2
  /// "R may be unavailable at some point").
  virtual void Fail(PeerId id) = 0;
  virtual void Recover(PeerId id) = 0;
  virtual bool IsFailed(PeerId id) const = 0;

  /// Runs until the transport drains or `max_time` passes on its clock.
  /// Returns the number of events (deliveries + timer callbacks)
  /// processed. Must be called from the driving thread.
  virtual size_t Run(double max_time = 1e9) = 0;

  /// True if no work is pending.
  virtual bool Idle() const = 0;

  /// The calling thread's writable stats shard. Peers increment fields
  /// directly; under a threaded backend each thread gets its own shard.
  virtual NetStats& stats() = 0;

  /// The merged read view — exact whenever the transport is quiescent.
  virtual const NetStats& stats() const = 0;
};

}  // namespace mqp::net
