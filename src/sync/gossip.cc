#include "sync/gossip.h"

#include <algorithm>
#include <vector>

namespace mqp::sync {

using catalog::CatalogDelta;

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
  // No vector piggyback: a push-back would address a peer going dark.
  const std::string body = goodbye.ToXml();
  for (const std::string& target : peers_) {
    SendDeltaBody(target, body, goodbye.size());
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
      if (seeds_.count(origin) == 0) DropPeer(origin);
      ++counters_.origins_expired;
    }
    versioned_.PurgeTombstones(now, options_.tombstone_gc_seconds);
    if (!peers_.empty()) {
      // Deterministic partner sample without replacement: the draws
      // depend only on the pool size, so shuffling pointers into the
      // ordered set picks what shuffling copies of it would.
      for (const std::string& p : peers_) pool_.push_back(&p);
      rng_.Shuffle(&pool_);
      const size_t n = std::min(options_.fanout, pool_.size());
      for (size_t i = 0; i < n; ++i) {
        SendDigest(*pool_[i]);
      }
      pool_.clear();
    }
  }
  ScheduleTick();
}

void SyncAgent::DropPeer(const std::string& address) {
  peers_.erase(address);
  known_partner_.clear();
}

void SyncAgent::SendDigest(const std::string& target) {
  auto pid = sim_->Lookup(target);
  if (!pid.ok() || *pid == id_) return;
  ++counters_.digests_sent;
  wire::Send(sim_, id_, *pid,
             {wire::kSyncDigestKind, self_, 0,
              net::MakePayload(versioned_.DigestXml())});
}

void SyncAgent::SendDelta(const std::string& target,
                          const catalog::RemoteVector& remote,
                          bool attach_vector) {
  std::string body;
  const size_t records = versioned_.WriteDelta(remote, attach_vector, &body);
  SendDeltaBody(target, std::move(body), records);
}

void SyncAgent::SendDeltaBody(const std::string& target, std::string body,
                              size_t records) {
  if (records == 0) return;
  auto pid = sim_->Lookup(target);
  if (!pid.ok() || *pid == id_) return;
  ++counters_.deltas_sent;
  counters_.records_sent += records;
  wire::Send(sim_, id_, *pid,
             {wire::kSyncDeltaKind, self_, 0,
              net::MakePayload(std::move(body))});
}

bool SyncAgent::HandleDigest(const wire::Envelope& env, net::PeerId from) {
  ++counters_.digests_received;
  if (!versioned_.ReadDigest(env.body(), &remote_).ok()) return false;
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
  const bool we_lack = !versioned_.Dominates(remote_);
  std::string body;
  const size_t missing = versioned_.WriteDelta(remote_, we_lack, &body);
  if (missing > 0) {
    SendDeltaBody(sender, std::move(body), missing);
  } else if (we_lack) {
    SendDigest(sender);
  }
  return true;
}

bool SyncAgent::HandleDelta(const wire::Envelope& env, net::PeerId from) {
  ++counters_.deltas_received;
  catalog::IncomingDelta incoming;
  if (!versioned_.ReadDelta(env.body(), &incoming).ok()) return false;
  const std::string sender =
      env.query_id.empty() ? sim_->Address(from) : env.query_id;
  AddPeer(sender);
  counters_.records_applied += versioned_.Apply(&incoming, sim_->now());
  // Record origins are gossip partner candidates too: membership grows
  // transitively with the catalog itself. A tombstoned presence record
  // is the origin's goodbye — drop it from the partner pool instead.
  // Per record, in order: one delta can carry an origin's live record
  // and its goodbye.
  for (size_t i = 0; i < incoming.records.size(); ++i) {
    const catalog::VersionedRecord& rec = incoming.records[i];
    if (rec.entry.kind == catalog::SyncEntryKind::kPresence &&
        rec.tombstone) {
      // A goodbye is authoritative: prune even a seed.
      DropPeer(rec.version.origin);
      seeds_.erase(rec.version.origin);
    } else if (!rec.tombstone) {
      const uint32_t origin = incoming.origins[i];
      if (origin < known_partner_.size() && known_partner_[origin]) continue;
      AddPeer(rec.version.origin);
      if (origin >= known_partner_.size()) known_partner_.resize(origin + 1);
      known_partner_[origin] = true;
    }
  }
  // Push-back: the piggybacked vector shows what the sender is missing.
  if (!incoming.sender.empty()) {
    SendDelta(sender, incoming.sender, /*attach_vector=*/false);
  }
  return true;
}

}  // namespace mqp::sync
