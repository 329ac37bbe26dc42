// Gossip/anti-entropy maintenance of distributed catalogs.
//
// The paper registers holdings once (§3.3) and never revisits them; this
// layer keeps catalogs converged under churn. Each participating peer
// runs a SyncAgent that:
//
//   * owns a catalog::VersionedCatalog mirroring live records into the
//     peer's plain Catalog,
//   * every gossip interval picks a few known peers (deterministic,
//     seeded) and sends its version vector as a `sync-digest`, each entry
//     (seq, fact_seq),
//   * on a digest, absorbs every newer seq the digest proves covers no
//     record it lacks (remote fact_seq <= its own seq), then replies with
//     one `sync-delta`: the records the digest proves missing, a
//     heartbeat entry per origin where it is ahead and no record carries
//     the seq, and a want per origin whose records it lacks — so one
//     exchange converges both sides (push-pull anti-entropy),
//   * answers a delta's wants with a push-back delta of those origins'
//     records, which asks for nothing in turn,
//   * heartbeats every refresh interval: the origin's seq advances and no
//     record is stamped; catalogs that stop absorbing fresh seqs from an
//     origin for longer than its TTL expire that origin's entries from
//     the projection,
//   * tombstones its own records and says goodbye on graceful departure
//     (Leave), and re-stamps everything on recovery (Rejoin).
//
// Determinism: partner choice flows through mqp::Rng seeded per agent,
// the partner pool is walked in address order, and everything runs on
// simulator time, so a seeded churn scenario is bit-reproducible.
//
// Cost: the agent reads digests and deltas against its catalog's address
// table and writes deltas and digests straight from it, so handling a
// message costs what the message carries, and a tick costs one pass over
// the origins (DESIGN.md §3, Cost).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/versioned.h"
#include "common/rng.h"
#include "net/transport.h"
#include "wire/envelope.h"

namespace mqp::sync {

/// \brief Gossip/anti-entropy knobs. All times are simulated seconds.
/// Each gossip round pushes one digest to one partner.
struct SyncOptions {
  double gossip_interval_seconds = 5;   ///< digest push period
  double entry_ttl_seconds = 60;        ///< declared TTL on own records
  double refresh_interval_seconds = 20; ///< presence heartbeat period
  double tombstone_gc_seconds = 600;    ///< purge tombstones older than this
  /// Stop rescheduling ticks past this simulated time (0 = run forever —
  /// the event queue then never drains; use Run(max_time) to step).
  double horizon_seconds = 0;
  /// Stop bumping the presence heartbeat past this simulated time
  /// (0 = refresh until the horizon). Scenarios that check convergence
  /// set this below horizon_seconds: gossip then has a quiet tail in
  /// which the final stamps finish propagating.
  double refresh_horizon_seconds = 0;
  uint64_t seed = 1;                    ///< per-agent partner-choice seed
};

/// \brief Counters for tests and benches.
struct SyncCounters {
  uint64_t ticks = 0;
  uint64_t digests_sent = 0;
  uint64_t digests_received = 0;
  uint64_t deltas_sent = 0;
  uint64_t deltas_received = 0;
  uint64_t records_sent = 0;
  uint64_t records_applied = 0;
  /// Vector entries advanced straight from a digest (no record).
  uint64_t heartbeats_absorbed = 0;
  uint64_t origins_expired = 0;
};

/// \brief One peer's gossip endpoint. The owning peer dispatches
/// `sync-digest` / `sync-delta` envelopes here and calls Start() to run
/// the Schedule-driven loop.
class SyncAgent {
 public:
  /// `projection` is the peer's catalog (may be null in pure-state tests);
  /// `sim` must outlive the agent. `id` / `self` are the owning peer's
  /// transport id and address.
  SyncAgent(net::Transport* sim, net::PeerId id, std::string self,
            catalog::Catalog* projection, SyncOptions options);

  const SyncOptions& options() const { return options_; }
  const SyncCounters& counters() const { return counters_; }
  catalog::VersionedCatalog& versioned() { return versioned_; }
  const catalog::VersionedCatalog& versioned() const { return versioned_; }

  // --- membership ---------------------------------------------------------------

  /// Adds a gossip partner candidate (ignored for self). Learned
  /// partners are pruned again when they expire or say goodbye.
  void AddPeer(const std::string& address);

  /// Adds a *seed* partner (bootstrap): never pruned by TTL expiry, so a
  /// peer that was down longer than every TTL can still re-enter the
  /// gossip mesh instead of isolating itself.
  void AddSeed(const std::string& address);

  /// True when `address` is in the partner pool.
  bool HasPeer(const std::string& address) const;

  /// Called with each origin a tick expires (the churn answer oracle
  /// counts false expiries through it).
  void set_expiry_hook(std::function<void(const std::string&)> hook) {
    expiry_hook_ = std::move(hook);
  }

  // --- own holdings ------------------------------------------------------------

  /// Asserts a fact originated by this peer (stamped, TTL'd, gossiped).
  void UpsertLocal(catalog::SyncEntry entry);

  /// Withdraws a fact originated by this peer (tombstone).
  void TombstoneLocal(const catalog::SyncEntry& entry);

  // --- lifecycle ---------------------------------------------------------------

  /// Stamps the first presence record and schedules the gossip loop.
  void Start();

  /// Stops rescheduling (pending ticks become no-ops).
  void Stop();

  /// Graceful departure: tombstones every own record and pushes one final
  /// delta to the gossip partners before the peer goes dark.
  void Leave();

  /// After Leave(), for a peer gone for good: frees the catalog and the
  /// partner pool. The agent stays only so that pending ticks find it.
  void Retire();

  /// True after Leave() until the next Rejoin(): the peer withdrew its
  /// assertions, so a rejoin must re-assert them (Peer::RejoinNetwork
  /// does) rather than just re-stamp.
  bool departed() const { return departed_; }

  /// Recovery: re-stamps all own records (remote vectors already dominate
  /// the old stamps), resumes gossip if stopped, and gossips at once.
  void Rejoin();

  // --- wire handlers (called by the owning peer) --------------------------------

  /// Each returns false when the body does not decode and the message is
  /// dropped; the peer counts that as a decode reject.
  bool HandleDigest(const wire::Envelope& env, net::PeerId from);
  bool HandleDelta(const wire::Envelope& env, net::PeerId from);

 private:
  void Tick();
  void ScheduleTick();
  /// Adds the catalog address `id` to the partner pool (seed: for good).
  void AddPartner(uint32_t id, bool seed);
  /// Removes a partner; a seed stays unless `unseed` (a goodbye).
  void DropPartner(uint32_t id, bool unseed);
  /// Sends a digest to one partner drawn from the pool.
  void SendDigest();
  /// Sends a delta body of `records` records (an empty body: nothing).
  void SendDeltaBody(std::string_view target, std::string body,
                     size_t records);

  net::Transport* sim_;
  net::PeerId id_;
  std::string self_;
  SyncOptions options_;
  catalog::VersionedCatalog versioned_;
  uint32_t self_id_;  ///< this peer's own address id
  // The partner pool, keyed by catalog address id: a flag per id, plus
  // the members in address order for the tick to sample.
  enum : uint8_t { kPeer = 1, kSeed = 2 };
  std::vector<uint8_t> member_;  ///< by address id: kPeer | kSeed bits
  std::vector<uint32_t> peers_;  ///< ids flagged kPeer, ascending address
  Rng rng_;
  SyncCounters counters_;
  // Reused across digests and ticks: both stay sized by the membership.
  // (A delta is read into a fresh IncomingDelta — one kept buffer would
  // hold the largest delta ever received.)
  catalog::RemoteVector remote_;
  std::vector<uint32_t> pool_;  ///< Tick's partner sample
  std::vector<uint32_t> advanced_;  ///< origins a digest's heartbeats advanced
  std::function<void(const std::string&)> expiry_hook_;
  double last_refresh_ = -1;
  bool running_ = false;
  bool departed_ = false;
  uint64_t epoch_ = 0;  ///< invalidates pending ticks on Stop/Start
};

}  // namespace mqp::sync
