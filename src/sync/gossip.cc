#include "sync/gossip.h"

#include <algorithm>
#include <vector>

namespace mqp::sync {

using catalog::CatalogDelta;
using catalog::VersionVector;

SyncAgent::SyncAgent(net::Transport* sim, net::PeerId id, std::string self,
                     catalog::Catalog* projection, SyncOptions options)
    : sim_(sim),
      id_(id),
      self_(std::move(self)),
      options_(options),
      versioned_(self_, projection),
      rng_(options.seed) {}

void SyncAgent::AddPeer(const std::string& address) {
  if (address == self_ || address.empty()) return;
  peers_.insert(address);
}

void SyncAgent::AddSeed(const std::string& address) {
  if (address == self_ || address.empty()) return;
  seeds_.insert(address);
  peers_.insert(address);
}

void SyncAgent::UpsertLocal(catalog::SyncEntry entry) {
  versioned_.UpsertLocal(std::move(entry), options_.entry_ttl_seconds,
                         sim_->now());
}

void SyncAgent::TombstoneLocal(const catalog::SyncEntry& entry) {
  versioned_.TombstoneLocal(entry, sim_->now());
}

void SyncAgent::Start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  versioned_.BumpPresence(options_.entry_ttl_seconds, sim_->now());
  last_refresh_ = sim_->now();
  ScheduleTick();
}

void SyncAgent::Stop() {
  running_ = false;
  ++epoch_;
}

void SyncAgent::Leave() {
  // Withdraw everything we ever asserted, then push one final delta of
  // *our own* records (now tombstones) so the withdrawal starts
  // propagating before we go dark.
  std::vector<catalog::SyncEntry> own;
  for (const auto& [key, rec] : versioned_.records()) {
    if (rec.version.origin == self_ && !rec.tombstone) {
      own.push_back(rec.entry);
    }
  }
  for (const auto& entry : own) {
    versioned_.TombstoneLocal(entry, sim_->now());
  }
  CatalogDelta goodbye;
  for (const auto& [key, rec] : versioned_.records()) {
    if (rec.version.origin == self_) goodbye.records.push_back(rec);
  }
  for (const std::string& target : peers_) {
    // No vector piggyback: a push-back would address a peer going dark.
    SendDeltaRaw(target, goodbye, /*attach_vector=*/false);
  }
  departed_ = true;
  Stop();
}

void SyncAgent::Rejoin() {
  departed_ = false;
  versioned_.RestampOwn(sim_->now());
  if (!running_) {
    running_ = true;
    ++epoch_;
    last_refresh_ = sim_->now();
    ScheduleTick();
  }
}

void SyncAgent::ScheduleTick() {
  if (options_.horizon_seconds > 0 &&
      sim_->now() >= options_.horizon_seconds) {
    return;
  }
  const uint64_t epoch = epoch_;
  sim_->ScheduleFor(id_, sim_->now() + options_.gossip_interval_seconds,
                 [this, epoch]() {
                   if (epoch == epoch_ && running_) Tick();
                 });
}

void SyncAgent::Tick() {
  ++counters_.ticks;
  // A crashed peer neither refreshes nor gossips; the loop idles until
  // the churn driver recovers it (Rejoin) — but keeps rescheduling so the
  // agent resumes on its own when only Fail/Recover were used.
  if (!sim_->IsFailed(id_)) {
    const double now = sim_->now();
    const bool may_refresh = options_.refresh_horizon_seconds <= 0 ||
                             now <= options_.refresh_horizon_seconds;
    if (may_refresh &&
        now - last_refresh_ >= options_.refresh_interval_seconds) {
      versioned_.BumpPresence(options_.entry_ttl_seconds, now);
      last_refresh_ = now;
    }
    // Origins whose TTL lapsed are dead until they refresh: drop them
    // from the partner pool too (seeds stay), so rounds are not wasted
    // digesting them.
    for (const std::string& origin : versioned_.ExpireSilent(now)) {
      if (seeds_.count(origin) == 0) peers_.erase(origin);
      ++counters_.origins_expired;
    }
    versioned_.PurgeTombstones(now, options_.tombstone_gc_seconds);
    if (!peers_.empty()) {
      // Deterministic partner sample without replacement.
      std::vector<std::string> pool(peers_.begin(), peers_.end());
      rng_.Shuffle(&pool);
      const size_t n = std::min(options_.fanout, pool.size());
      for (size_t i = 0; i < n; ++i) {
        SendDigest(pool[i]);
      }
    }
  }
  ScheduleTick();
}

void SyncAgent::SendDigest(const std::string& target) {
  auto pid = sim_->Lookup(target);
  if (!pid.ok() || *pid == id_) return;
  ++counters_.digests_sent;
  wire::Send(sim_, id_, *pid,
             {wire::kSyncDigestKind, self_, 0,
              net::MakePayload(catalog::DigestToXml(versioned_.vector()))});
}

void SyncAgent::SendDelta(const std::string& target,
                          const VersionVector& remote) {
  SendDeltaRaw(target, versioned_.DeltaSince(remote), /*attach_vector=*/false);
}

void SyncAgent::SendDeltaRaw(const std::string& target,
                             const CatalogDelta& delta, bool attach_vector) {
  if (delta.empty()) return;
  auto pid = sim_->Lookup(target);
  if (!pid.ok() || *pid == id_) return;
  ++counters_.deltas_sent;
  counters_.records_sent += delta.size();
  CatalogDelta framed = delta;
  if (attach_vector) framed.sender_vector = versioned_.vector();
  wire::Send(sim_, id_, *pid,
             {wire::kSyncDeltaKind, self_, 0,
              net::MakePayload(framed.ToXml())});
}

bool SyncAgent::HandleDigest(const wire::Envelope& env, net::PeerId from) {
  ++counters_.digests_received;
  auto remote = catalog::DigestFromXml(env.body());
  if (!remote.ok()) return false;
  // The envelope's query-id slot carries the sender's address; fall back
  // to the simulator id for raw messages.
  const std::string sender =
      env.query_id.empty() ? sim_->Address(from) : env.query_id;
  AddPeer(sender);
  // Push: everything the sender's vector proves it is missing. When the
  // sender also has versions we lack (bidirectional gap), piggyback our
  // vector on the delta so it pushes back without a digest round-trip —
  // a small digest-back would overtake the large delta on the wire and
  // trigger a duplicate send. With nothing to push, a plain digest-back
  // solicits their delta. Terminates: after their delta arrives, the
  // we-lack condition turns false.
  const catalog::CatalogDelta missing = versioned_.DeltaSince(*remote);
  const bool we_lack = !catalog::Dominates(versioned_.vector(), *remote);
  if (!missing.empty()) {
    SendDeltaRaw(sender, missing, /*attach_vector=*/we_lack);
  } else if (we_lack) {
    SendDigest(sender);
  }
  return true;
}

bool SyncAgent::HandleDelta(const wire::Envelope& env, net::PeerId from) {
  ++counters_.deltas_received;
  auto delta = CatalogDelta::FromXml(env.body());
  if (!delta.ok()) return false;
  const std::string sender =
      env.query_id.empty() ? sim_->Address(from) : env.query_id;
  AddPeer(sender);
  counters_.records_applied += versioned_.Apply(*delta, sim_->now());
  // Record origins are gossip partner candidates too: membership grows
  // transitively with the catalog itself. A tombstoned presence record
  // is the origin's goodbye — drop it from the partner pool instead.
  for (const auto& rec : delta->records) {
    if (rec.entry.kind == catalog::SyncEntryKind::kPresence &&
        rec.tombstone) {
      // A goodbye is authoritative: prune even a seed.
      peers_.erase(rec.version.origin);
      seeds_.erase(rec.version.origin);
    } else if (!rec.tombstone) {
      AddPeer(rec.version.origin);
    }
  }
  // Push-back: the piggybacked vector shows what the sender is missing.
  if (!delta->sender_vector.empty()) {
    SendDelta(sender, delta->sender_vector);
  }
  return true;
}

}  // namespace mqp::sync
