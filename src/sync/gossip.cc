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
      self_id_(versioned_.InternAddress(self_)),
      rng_(options.seed) {}

void SyncAgent::AddPeer(const std::string& address) {
  if (address == self_ || address.empty()) return;
  AddPartner(versioned_.InternAddress(address), /*seed=*/false);
}

void SyncAgent::AddSeed(const std::string& address) {
  if (address == self_ || address.empty()) return;
  AddPartner(versioned_.InternAddress(address), /*seed=*/true);
}

bool SyncAgent::HasPeer(const std::string& address) const {
  const uint32_t id = versioned_.FindAddress(address);
  return id < member_.size() && (member_[id] & kPeer) != 0;
}

void SyncAgent::AddPartner(uint32_t id, bool seed) {
  if (id == self_id_) return;
  if (id >= member_.size()) member_.resize(id + 1, 0);
  if (seed) member_[id] |= kSeed;
  if ((member_[id] & kPeer) != 0) return;
  member_[id] |= kPeer;
  const std::string_view address = versioned_.Address(id);
  peers_.insert(std::lower_bound(peers_.begin(), peers_.end(), address,
                                 [&](uint32_t p, std::string_view a) {
                                   return versioned_.Address(p) < a;
                                 }),
                id);
}

void SyncAgent::DropPartner(uint32_t id, bool unseed) {
  if (id >= member_.size()) return;
  if (unseed) member_[id] &= ~kSeed;
  if ((member_[id] & kSeed) != 0 || (member_[id] & kPeer) == 0) return;
  member_[id] &= ~kPeer;
  peers_.erase(std::find(peers_.begin(), peers_.end(), id));
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
  // The facts just stamped announce this peer; one that has none says
  // hello instead.
  versioned_.Greet(options_.entry_ttl_seconds, sim_->now());
  last_refresh_ = sim_->now();
  ScheduleTick();
}

void SyncAgent::Stop() {
  running_ = false;
  ++epoch_;
}

void SyncAgent::Leave() {
  // Withdraw everything we ever asserted and say goodbye (a tombstoned
  // presence record, over a hello if there is one), then push one final
  // delta of *our own* records (now tombstones) so the withdrawal starts
  // propagating before we go dark.
  std::vector<catalog::SyncEntry> own;
  for (const auto& [key, rec] : versioned_.records()) {
    if (rec.version.origin == self_ && !rec.tombstone &&
        rec.entry.kind != catalog::SyncEntryKind::kPresence) {
      own.push_back(rec.entry);
    }
  }
  own.push_back({catalog::SyncEntryKind::kPresence, {}, {}});
  for (const auto& entry : own) {
    versioned_.TombstoneLocal(entry, sim_->now());
  }
  CatalogDelta goodbye;
  for (const auto& [key, rec] : versioned_.records()) {
    if (rec.version.origin == self_) goodbye.records.push_back(rec);
  }
  // Every own record, so it needs no heartbeat entry and asks for
  // nothing: a push-back would address a peer going dark.
  const std::string body = goodbye.ToXml();
  for (uint32_t id : peers_) {
    SendDeltaBody(versioned_.Address(id), body, goodbye.size());
  }
  departed_ = true;
  Stop();
}

void SyncAgent::Retire() {
  versioned_ = catalog::VersionedCatalog(self_, nullptr);
  member_ = {};
  peers_ = {};
  pool_ = {};
  advanced_ = {};
  remote_ = {};
}

void SyncAgent::Rejoin() {
  versioned_.RestampOwn(sim_->now());
  // A departed peer holds only tombstones: its hello overwrites the
  // goodbye, so no catalog prunes it again from a late copy.
  versioned_.Greet(options_.entry_ttl_seconds, sim_->now());
  departed_ = false;
  if (!running_) {
    running_ = true;
    ++epoch_;
    last_refresh_ = sim_->now();
    ScheduleTick();
  }
  // The re-stamped records are the freshest news there is: gossip them
  // now rather than up to a whole interval later.
  if (!sim_->IsFailed(id_)) SendDigest();
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
      DropPartner(versioned_.FindAddress(origin), /*unseed=*/false);
      ++counters_.origins_expired;
      if (expiry_hook_) expiry_hook_(origin);
    }
    versioned_.PurgeTombstones(now, options_.tombstone_gc_seconds);
    SendDigest();
  }
  ScheduleTick();
}

void SyncAgent::SendDigest() {
  if (peers_.empty()) return;
  // Deterministic partner draw: the first partner of a shuffle of the
  // whole pool (in address order). The shuffle's draws depend only on the
  // pool size; drawing one index instead would consume the Rng differently
  // and change every later partner.
  pool_.assign(peers_.begin(), peers_.end());
  rng_.Shuffle(&pool_);
  auto pid = sim_->Lookup(versioned_.Address(pool_.front()));
  if (!pid.ok() || *pid == id_) return;
  ++counters_.digests_sent;
  wire::Send(sim_, id_, *pid,
             {wire::kSyncDigestKind, self_, 0,
              net::MakePayload(versioned_.DigestXml())});
}

void SyncAgent::SendDeltaBody(std::string_view target, std::string body,
                              size_t records) {
  if (body.empty()) return;
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
  // Pull heartbeats: take every newer seq the digest proves covers no
  // record we lack. Then reply with what the sender lacks — records, and
  // heartbeat entries for the seqs no record carries — and with a want
  // per origin whose records we lack, which the sender pushes back. One
  // exchange converges both sides; the push-back asks for nothing, so it
  // ends there.
  advanced_.clear();
  counters_.heartbeats_absorbed +=
      versioned_.Absorb(remote_, sim_->now(), &advanced_);
  // A heartbeat proves its origin alive: back into the partner pool.
  for (uint32_t id : advanced_) AddPartner(id, /*seed=*/false);
  std::string body;
  const size_t records = versioned_.WriteReply(remote_, &body);
  SendDeltaBody(sender, std::move(body), records);
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
    const uint32_t origin = incoming.origins[i];
    if (rec.entry.kind == catalog::SyncEntryKind::kPresence &&
        rec.tombstone) {
      // A goodbye is authoritative: prune even a seed.
      DropPartner(origin, /*unseed=*/true);
    } else if (!rec.tombstone) {
      AddPartner(origin, /*seed=*/false);
    }
  }
  for (uint32_t id : incoming.advanced) AddPartner(id, /*seed=*/false);
  // Push-back: the records of the origins the sender asked for.
  if (!incoming.wants.empty()) {
    std::string body;
    const size_t records = versioned_.WritePushBack(incoming.wants, &body);
    SendDeltaBody(sender, std::move(body), records);
  }
  return true;
}

}  // namespace mqp::sync
