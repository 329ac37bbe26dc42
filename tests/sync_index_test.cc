// Differential sweep for the sync layer's bookkeeping: VersionedCatalog,
// which keeps its state in a per-catalog address table (DESIGN.md §3,
// Cost), against ReferenceCatalog below — a record-scanning
// implementation of the same protocol, kept here as the oracle. Both
// sides share the codec (VersionedRecord, CatalogDelta, digests), so only
// the bookkeeping is compared. Seeded op sequences drive both sides; after
// every op the records, vector, liveness, projection and the bytes of
// every delta, digest, digest reply and push-back must match exactly, and
// the vector invariant must hold: a vector that lists seq s for origin o
// comes with every record of o up to s. This is the only oracle that
// exercises TTL expiry exactly: the runtime churn equivalence keeps TTL
// boundaries out of reach on purpose. Digest and delta bodies also arrive
// with their <v>/<want> entries shuffled, some origins listed twice and
// unknown ones interleaved, and must read as their sorted twins do.
//
// MQP_EQUIV_SEEDS sets the seed count (CI runs 1000).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/intension.h"
#include "catalog/versioned.h"
#include "common/rng.h"
#include "xml/token_writer.h"

namespace mqp {
namespace {

using catalog::Catalog;
using catalog::CatalogDelta;
using catalog::Digest;
using catalog::HoldingLevel;
using catalog::SyncEntry;
using catalog::SyncEntryKind;
using catalog::VersionedCatalog;
using catalog::VersionedRecord;
using catalog::VersionVector;

size_t EquivSeeds(size_t fallback) {
  if (const char* env = std::getenv("MQP_EQUIV_SEEDS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

// --- the reference: record-scanning bookkeeping ----------------------------------

// Strictly newer-than, the LWW merge order for one record key: the higher
// sequence wins, and a tie breaks on the origin string.
bool Newer(const catalog::EntryVersion& a, const catalog::EntryVersion& b) {
  if (a.sequence != b.sequence) return a.sequence > b.sequence;
  return a.origin > b.origin;
}

class ReferenceCatalog {
 public:
  ReferenceCatalog(std::string self, Catalog* projection)
      : self_(std::move(self)), projection_(projection) {}

  const std::string& self() const { return self_; }
  const VersionVector& vector() const { return vector_; }
  Digest digest() const {
    Digest out;
    for (const auto& [origin, seq] : vector_) {
      out[origin] = {seq, fact_seq_.at(origin)};
    }
    return out;
  }
  const std::map<std::string, VersionedRecord>& records() const {
    return records_;
  }

  void UpsertLocal(SyncEntry entry, double ttl_seconds, double now) {
    VersionedRecord rec;
    rec.version = {self_, StampOwn(now)};
    rec.entry = std::move(entry);
    rec.ttl_seconds = ttl_seconds;
    rec.stamped_at = now;
    const std::string key = rec.Key();
    RetireReplacedProjection(key, rec);
    Project(rec);
    records_[key] = std::move(rec);
  }

  void TombstoneLocal(const SyncEntry& entry, double now) {
    VersionedRecord rec;
    rec.version = {self_, StampOwn(now)};
    rec.entry = entry;
    rec.tombstone = true;
    rec.stamped_at = now;
    const std::string key = rec.Key();
    RetireReplacedProjection(key, rec);
    records_[key] = rec;
    Unproject(rec);
  }

  bool Greet(double ttl_seconds, double now) {
    for (const auto& [key, rec] : records_) {
      if (rec.version.origin == self_ && !rec.tombstone) return false;
    }
    UpsertLocal(Presence(), ttl_seconds, now);
    return true;
  }

  void BumpPresence(double ttl_seconds, double now) {
    if (Greet(ttl_seconds, now)) return;
    vector_[self_] = ++next_sequence_;  // a heartbeat: no record
    last_heard_[self_] = now;
  }

  void RestampOwn(double now) {
    for (auto& [key, rec] : records_) {
      if (rec.version.origin != self_ || rec.tombstone) continue;
      rec.version.sequence = ++next_sequence_;
      rec.stamped_at = now;
      vector_[self_] = fact_seq_[self_] = rec.version.sequence;
      Project(rec);
    }
    last_heard_[self_] = now;
  }

  // Records above `remote`, and a heartbeat entry wherever this vector is
  // ahead of `remote` past its newest record.
  CatalogDelta DeltaSince(const VersionVector& remote,
                          bool listed_only = false) const {
    auto seen = [&](const std::string& origin, uint64_t* out) {
      auto it = remote.find(origin);
      *out = it == remote.end() ? 0 : it->second;
      return it != remote.end() || !listed_only;
    };
    CatalogDelta delta;
    uint64_t at = 0;
    for (const auto& [origin, seq] : vector_) {
      if (seen(origin, &at) && seq > at && seq > fact_seq_.at(origin)) {
        delta.heartbeats[origin] = seq;
      }
    }
    for (const auto& [key, rec] : records_) {
      if (seen(rec.version.origin, &at) && rec.version.sequence > at) {
        delta.records.push_back(rec);
      }
    }
    return delta;
  }

  // The digest exchange: absorb, then reply.
  size_t Absorb(const Digest& remote, double now) {
    size_t absorbed = 0;
    for (const auto& [origin, e] : remote) {
      auto it = vector_.find(origin);
      if (it != vector_.end() && e.seq > it->second &&
          e.fact_seq <= it->second) {
        Advance(origin, e.seq, now);
        ++absorbed;
      }
    }
    return absorbed;
  }
  CatalogDelta ReplyTo(const Digest& remote) const {
    VersionVector seqs;
    for (const auto& [origin, e] : remote) seqs[origin] = e.seq;
    CatalogDelta reply = DeltaSince(seqs);
    for (const auto& [origin, e] : remote) {
      auto it = vector_.find(origin);
      const uint64_t local = it == vector_.end() ? 0 : it->second;
      if (e.seq > local) reply.wants[origin] = local;
    }
    return reply;
  }
  CatalogDelta PushBack(const VersionVector& wants) const {
    return DeltaSince(wants, /*listed_only=*/true);
  }

  size_t Apply(const CatalogDelta& delta, double now) {
    size_t changed = 0;
    for (const VersionedRecord& incoming : delta.records) {
      const std::string& origin = incoming.version.origin;
      if (incoming.version.sequence > vector_[origin]) {
        Advance(origin, incoming.version.sequence, now);
      }
      uint64_t& fact_seq = fact_seq_[origin];
      fact_seq = std::max(fact_seq, incoming.version.sequence);
      const std::string key = incoming.Key();
      auto it = records_.find(key);
      if (it != records_.end() &&
          !Newer(incoming.version, it->second.version)) {
        continue;
      }
      VersionedRecord rec = incoming;
      rec.stamped_at = now;
      RetireReplacedProjection(key, rec);
      if (rec.tombstone) {
        Unproject(rec);
      } else {
        Project(rec);
      }
      records_[key] = std::move(rec);
      ++changed;
    }
    for (const auto& [origin, seq] : delta.heartbeats) {
      auto it = vector_.find(origin);
      if (it != vector_.end() && seq > it->second) Advance(origin, seq, now);
    }
    return changed;
  }

  double LastHeard(const std::string& origin) const {
    auto it = last_heard_.find(origin);
    return it == last_heard_.end() ? 0 : it->second;
  }

  std::vector<std::string> ExpireSilent(double now) {
    std::map<std::string, double> ttls;
    for (const auto& [key, rec] : records_) {
      double& ttl = ttls[rec.version.origin];
      ttl = std::max(ttl, rec.ttl_seconds);
    }
    std::vector<std::string> newly_expired;
    for (const auto& [origin, ttl] : ttls) {
      if (origin == self_ || expired_origins_.count(origin) > 0) continue;
      if (ttl <= 0) continue;
      if (now - LastHeard(origin) <= ttl) continue;
      expired_origins_.insert(origin);
      newly_expired.push_back(origin);
      for (const auto& [key, rec] : records_) {
        if (rec.version.origin == origin && !rec.tombstone) Unproject(rec);
      }
    }
    return newly_expired;
  }

  std::vector<std::string> LiveOrigins(double now) const {
    std::set<std::string> origins{self_};
    for (const auto& [key, rec] : records_) origins.insert(rec.version.origin);
    std::vector<std::string> live;
    for (const std::string& origin : origins) {
      if (origin != self_) {
        const double ttl = OriginTtl(origin);
        if (ttl > 0 && now - LastHeard(origin) > ttl) continue;
      }
      live.push_back(origin);
    }
    return live;
  }

  // Keeps each origin's newest record: the one stamped fact_seq.
  size_t PurgeTombstones(double now, double min_age) {
    size_t purged = 0;
    for (auto it = records_.begin(); it != records_.end();) {
      const VersionedRecord& rec = it->second;
      if (rec.tombstone && now - rec.stamped_at >= min_age &&
          rec.version.sequence != fact_seq_[rec.version.origin]) {
        it = records_.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
    return purged;
  }

  double OriginTtl(const std::string& origin) const {
    double ttl = 0;
    for (const auto& [key, rec] : records_) {
      if (rec.version.origin == origin) ttl = std::max(ttl, rec.ttl_seconds);
    }
    return ttl;
  }

  static SyncEntry Presence() { return {SyncEntryKind::kPresence, {}, {}}; }

 private:
  uint64_t StampOwn(double now) {
    const uint64_t seq = ++next_sequence_;
    vector_[self_] = fact_seq_[self_] = seq;
    last_heard_[self_] = now;
    return seq;
  }

  void Advance(const std::string& origin, uint64_t seq, double now) {
    vector_[origin] = seq;
    last_heard_[origin] = now;
    if (origin == self_) next_sequence_ = std::max(next_sequence_, seq);
    if (expired_origins_.erase(origin) > 0) {
      for (const auto& [k, rec] : records_) {
        if (rec.version.origin == origin && !rec.tombstone) Project(rec);
      }
    }
  }

  void RetireReplacedProjection(const std::string& key,
                                const VersionedRecord& rec) {
    auto it = records_.find(key);
    if (it == records_.end() || it->second.tombstone) return;
    if (it->second.entry == rec.entry && !rec.tombstone) return;
    Unproject(it->second);
  }

  void Project(const VersionedRecord& rec) {
    if (projection_ == nullptr) return;
    if (rec.entry.kind == SyncEntryKind::kPresence) return;
    if (expired_origins_.count(rec.version.origin) > 0) return;
    if (rec.entry.kind == SyncEntryKind::kArea) {
      projection_->AddEntry(rec.entry.entry);
    } else if (rec.entry.entry.level == HoldingLevel::kBase) {
      projection_->AddNamedMapping(rec.entry.urn, rec.entry.entry.server,
                                   rec.entry.entry.xpath);
    } else {
      projection_->AddNamedReferral(rec.entry.urn, rec.entry.entry.server);
    }
  }

  void Unproject(const VersionedRecord& rec) {
    if (projection_ == nullptr) return;
    if (rec.entry.kind == SyncEntryKind::kPresence) return;
    const std::string& server = rec.entry.entry.server;
    bool server_still_asserted = false;
    for (const auto& [key, other] : records_) {
      if (other.tombstone || other.entry.kind == SyncEntryKind::kPresence) {
        continue;
      }
      if (expired_origins_.count(other.version.origin) > 0) continue;
      if (other.version.origin == rec.version.origin &&
          other.Key() == rec.Key()) {
        continue;
      }
      if (other.entry.entry.server == server) server_still_asserted = true;
      if (other.version.origin != rec.version.origin &&
          other.entry == rec.entry) {
        return;
      }
    }
    if (rec.entry.kind == SyncEntryKind::kArea) {
      projection_->RemoveEntry(rec.entry.entry);
    } else {
      projection_->RemoveNamedEntry(rec.entry.urn, rec.entry.entry);
    }
    if (!server_still_asserted) projection_->RemoveStatementsNaming(server);
  }

  std::string self_;
  Catalog* projection_;
  std::map<std::string, VersionedRecord> records_;
  VersionVector vector_;
  std::map<std::string, uint64_t> fact_seq_;
  uint64_t next_sequence_ = 0;
  std::map<std::string, double> last_heard_;
  std::set<std::string> expired_origins_;
};

// --- the sweep -------------------------------------------------------------------

// "p"/"p1" and "s"/"s1" are prefix pairs: Key() order ("p1|" < "p|")
// differs from address order there, and deltas must follow the former.
const std::vector<std::string> kSources = {"p", "p1", "q", "s1"};
const std::string kSelf = "s";
// Fact servers: two origins, a third peer that never gossips, and self.
const std::vector<std::string> kServers = {"p", "q", "x", "s"};
// Every name a query may ask about, plus one no catalog ever hears of.
const std::vector<std::string> kNames = {"p", "p1", "q", "s1", "s", "x", "zz"};
const std::vector<std::string> kStatements = {
    "base[(USA,*)]@p = base[(USA,*)]@x",
    "base[(France,*)]@q >= base[(France,*)]@s{10}",
};
const std::vector<std::string> kUrns = {"urn:X:A", "urn:X:B"};

SyncEntry RandomFact(Rng* rng) {
  static const char* kAreas[] = {"(USA.OR,*)", "(USA.WA,*)", "(France,*)"};
  static const char* kXpaths[] = {"", "/data[id=c0]"};
  SyncEntry se;
  se.kind = rng->NextBool(0.7) ? SyncEntryKind::kArea : SyncEntryKind::kNamed;
  if (se.kind == SyncEntryKind::kNamed) se.urn = kUrns[rng->NextBelow(2)];
  se.entry.level =
      rng->NextBool(0.8) ? HoldingLevel::kBase : HoldingLevel::kIndex;
  se.entry.area = *ns::InterestArea::Parse(kAreas[rng->NextBelow(3)]);
  if (rng->NextBool(0.1)) {
    // Prints as "(USA.OR,*)" but does not parse back to itself: the same
    // key as the parsed area, a different fact.
    se.entry.area = ns::InterestArea(ns::InterestCell(
        {ns::CategoryPath({"USA.OR"}), ns::CategoryPath()}));
  }
  se.entry.server = kServers[rng->NextBelow(kServers.size())];
  se.entry.xpath = kXpaths[rng->NextBelow(2)];
  se.entry.delay_minutes = rng->NextBool(0.3) ? 15 : 0;
  return se;
}

double RandomTtl(Rng* rng) {
  static const double kTtls[] = {0, 4, 6, 10};
  return kTtls[rng->NextBelow(4)];
}

// A vector the test catalog might be asked about: its own (the common
// digest), a random cut of a source's, or either plus origins nobody
// knows. Probes only: nothing delivered is computed against it.
VersionVector RandomVector(Rng* rng, const VersionVector& mine,
                           const VersionVector& theirs) {
  VersionVector v;
  switch (rng->NextBelow(3)) {
    case 0:
      v = mine;
      break;
    case 1:
      for (const auto& [o, s] : theirs) {
        if (rng->NextBool(0.7)) v[o] = rng->NextBelow(s + 2);
      }
      break;
    default:
      break;
  }
  if (rng->NextBool(0.3)) v["zz"] = rng->NextBelow(5);
  if (rng->NextBool(0.2)) v["x"] = rng->NextBelow(3);
  return v;
}

// A vector at or below `held` per origin (plus origins nobody knows): one
// the holder had at some point, so a delta computed against it is
// complete above what the holder holds.
VersionVector RandomCut(Rng* rng, const VersionVector& held) {
  VersionVector v;
  for (const auto& [o, s] : held) {
    if (rng->NextBool(0.7)) v[o] = rng->NextBool(0.5) ? s : rng->NextBelow(s + 1);
  }
  if (rng->NextBool(0.3)) v["zz"] = rng->NextBelow(5);
  return v;
}

// `v` as a digest, each entry with a random fact_seq <= its seq.
Digest WithFactSeqs(Rng* rng, const VersionVector& v) {
  Digest d;
  for (const auto& [o, s] : v) {
    d[o] = {s, rng->NextBool(0.3) ? s : rng->NextBelow(s + 1)};
  }
  return d;
}

// --- shuffled vector bodies ----------------------------------------------------
//
// Honest writers list origins in ascending address order, and the catalog
// reads a body by merging it against its own address order. These bodies
// reach the merge read's fallback: the same entries as their sorted twin,
// shuffled, with decoy listings of some origins placed before the true
// one (the last listing wins) and, optionally, origins no catalog knows.

struct Listing {
  bool want = false;  ///< a <want> rather than a <v>
  std::string origin;
  uint64_t seq = 0;
  uint64_t fact_seq = 0;
};

// Addresses no catalog of the sweep hears of, around and between the
// known ones.
const std::vector<std::string> kStrangers = {"a", "p0", "q1", "r", "zy"};

std::string ShuffledEntries(std::vector<Listing> entries, bool strangers,
                            Rng* rng) {
  if (strangers) {
    for (const auto& o : kStrangers) {
      if (rng->NextBool(0.3)) {
        entries.push_back({rng->NextBool(0.5), o, rng->NextBelow(4), 0});
      }
    }
  }
  rng->Shuffle(&entries);
  std::vector<Listing> listed = entries;
  for (const Listing& e : entries) {
    if (!rng->NextBool(0.4)) continue;
    Listing decoy = e;
    decoy.seq = rng->NextBelow(9);
    decoy.fact_seq = rng->NextBelow(decoy.seq + 1);
    if (decoy.want) decoy.fact_seq = decoy.seq;
    // Anywhere before the listing it is a decoy of.
    size_t at = 0;
    while (listed[at].want != e.want || listed[at].origin != e.origin) ++at;
    listed.insert(listed.begin() + rng->NextBelow(at + 1), decoy);
  }
  std::string out;
  xml::TokenWriter w(&out);
  for (const Listing& e : listed) {
    w.Start(e.want ? "want" : "v");
    w.Attr("o", e.origin);
    w.Attr("s", e.seq);
    if (e.fact_seq != e.seq) w.Attr("f", e.fact_seq);
    w.End();
  }
  return out;
}

std::string ShuffledDigest(const Digest& digest, bool strangers, Rng* rng) {
  std::vector<Listing> entries;
  for (const auto& [o, e] : digest) {
    entries.push_back({false, o, e.seq, e.fact_seq});
  }
  return "<digest>" + ShuffledEntries(entries, strangers, rng) + "</digest>";
}

// <v> and <want> entries interleaved; the records follow in order.
std::string ShuffledDelta(const CatalogDelta& delta, Rng* rng) {
  std::vector<Listing> entries;
  for (const auto& [o, s] : delta.heartbeats) {
    entries.push_back({false, o, s, s});
  }
  for (const auto& [o, s] : delta.wants) entries.push_back({true, o, s, s});
  CatalogDelta records;
  records.records = delta.records;
  std::string tail = records.ToXml();  // "<delta>...</delta>" or "<delta/>"
  tail = tail == "<delta/>" ? "" : tail.substr(7, tail.size() - 15);
  return "<delta>" + ShuffledEntries(entries, /*strangers=*/true, rng) + tail +
         "</delta>";
}

void SeedStatements(Catalog* catalog) {
  for (const auto& text : kStatements) {
    catalog->AddStatement(*catalog::IntensionalStatement::Parse(text));
  }
}

// Everything observable must match: records (stamps included), vector,
// liveness, projection, and the bytes of deltas, digests, digest replies
// and push-backs, for sorted and shuffled (`shuffle_rng`) bodies alike.
void ExpectSame(const ReferenceCatalog& ref, const Catalog& ref_proj,
                const VersionedCatalog& impl, const Catalog& impl_proj,
                double now, Rng* rng, Rng* shuffle_rng) {
  const auto records = impl.records();
  ASSERT_EQ(records.size(), ref.records().size());
  auto it = records.begin();
  for (const auto& [key, rec] : ref.records()) {
    ASSERT_EQ(it->first, key);
    ASSERT_EQ(it->second, rec) << key;
    ASSERT_EQ(it->second.stamped_at, rec.stamped_at) << key;
    ++it;
  }
  ASSERT_EQ(impl.vector(), ref.vector());
  ASSERT_EQ(impl.digest(), ref.digest());
  for (const auto& name : kNames) {
    ASSERT_EQ(impl.LastHeard(name), ref.LastHeard(name)) << name;
  }
  for (double at : {now, now + 3, now + 7}) {
    ASSERT_EQ(impl.LiveOrigins(at), ref.LiveOrigins(at)) << at;
  }
  ASSERT_EQ(impl.DigestXml(), catalog::DigestToXml(ref.digest()));

  std::vector<VersionVector> probes = {{}, ref.vector()};
  for (int i = 0; i < 3; ++i) {
    probes.push_back(RandomVector(rng, ref.vector(), ref.vector()));
  }
  catalog::RemoteVector remote;
  catalog::IncomingDelta asked;
  for (const auto& v : probes) {
    ASSERT_EQ(impl.DeltaSince(v).ToXml(), ref.DeltaSince(v).ToXml());
    // The wire path: the reply to `v` as a digest...
    const Digest d = WithFactSeqs(rng, v);
    ASSERT_TRUE(impl.ReadDigest(catalog::DigestToXml(d), &remote).ok());
    const CatalogDelta reply = ref.ReplyTo(d);
    std::string body;
    ASSERT_EQ(impl.WriteReply(remote, &body), reply.size());
    ASSERT_EQ(body, reply.empty() ? "" : reply.ToXml());
    // ...and the push-back for `v` as wants.
    CatalogDelta asks;
    asks.wants = v;
    ASSERT_TRUE(impl.ReadDelta(asks.ToXml(), &asked).ok());
    const CatalogDelta push = ref.PushBack(v);
    body.clear();
    ASSERT_EQ(impl.WritePushBack(asked.wants, &body), push.size());
    ASSERT_EQ(body, push.empty() ? "" : push.ToXml());
    // Shuffled twins of both reply to what they list, read sorted.
    const std::string shuffled = ShuffledDigest(d, true, shuffle_rng);
    const Digest twin = *catalog::DigestFromXml(shuffled);
    std::string sorted_reply;
    ASSERT_TRUE(impl.ReadDigest(catalog::DigestToXml(twin), &remote).ok());
    impl.WriteReply(remote, &sorted_reply);
    ASSERT_TRUE(impl.ReadDigest(shuffled, &remote).ok()) << shuffled;
    const CatalogDelta twin_reply = ref.ReplyTo(twin);
    body.clear();
    ASSERT_EQ(impl.WriteReply(remote, &body), twin_reply.size());
    ASSERT_EQ(body, sorted_reply) << shuffled;
    ASSERT_EQ(body, twin_reply.empty() ? "" : twin_reply.ToXml());
    const std::string shuffled_asks = ShuffledDelta(asks, shuffle_rng);
    const CatalogDelta asks_twin = *CatalogDelta::FromXml(shuffled_asks);
    ASSERT_TRUE(impl.ReadDelta(shuffled_asks, &asked).ok()) << shuffled_asks;
    const CatalogDelta twin_push = ref.PushBack(asks_twin.wants);
    body.clear();
    ASSERT_EQ(impl.WritePushBack(asked.wants, &body), twin_push.size());
    ASSERT_EQ(body, twin_push.empty() ? "" : twin_push.ToXml())
        << shuffled_asks;
  }

  ASSERT_EQ(impl_proj.entries(), ref_proj.entries());
  ASSERT_EQ(impl_proj.statements(), ref_proj.statements());
  for (const auto& urn : kUrns) {
    auto a = impl_proj.Resolve(urn);
    auto b = ref_proj.Resolve(urn);
    ASSERT_EQ(a.ok(), b.ok()) << urn;
    if (a.ok()) {
      ASSERT_EQ(a->ToString(), b->ToString()) << urn;
    }
  }
}

// The vector invariant (catalog/versioned.h): if the catalog lists seq s
// for an origin, it holds every record the origin stamped up to s — the
// record, or a newer one under its key. Keys the catalog purged a
// tombstone under are exempt: an older copy may have arrived since.
void ExpectInvariant(const VersionedCatalog& impl,
                     const std::vector<ReferenceCatalog>& sources,
                     const std::set<std::string>& purged) {
  const auto held = impl.records();
  const VersionVector vector = impl.vector();
  for (const ReferenceCatalog& src : sources) {
    auto listed = vector.find(src.self());
    if (listed == vector.end()) continue;
    for (const auto& [key, rec] : src.records()) {
      if (rec.version.origin != src.self() ||
          rec.version.sequence > listed->second || purged.count(key) > 0) {
        continue;
      }
      auto h = held.find(key);
      ASSERT_TRUE(h != held.end() &&
                  h->second.version.sequence >= rec.version.sequence)
          << "lists " << src.self() << " at " << listed->second
          << " without " << key << " @" << rec.version.sequence;
    }
  }
}

// Runs one seeded op sequence; fails at the first divergence.
void RunSeed(uint64_t seed, int ops) {
  Rng rng(seed);
  // Shuffled bodies draw from their own stream, so the ops stay the same.
  Rng shuffle_rng(seed ^ 0x5eedf00dULL);
  Catalog ref_proj, impl_proj;
  SeedStatements(&ref_proj);
  SeedStatements(&impl_proj);
  ReferenceCatalog ref(kSelf, &ref_proj);
  VersionedCatalog impl(kSelf, &impl_proj);
  // The other origins: pure-state reference catalogs that assert, gossip
  // among themselves and echo the test catalog's own records back.
  std::vector<ReferenceCatalog> sources;
  for (const auto& o : kSources) sources.emplace_back(o, nullptr);
  std::vector<CatalogDelta> sent;  // every delta delivered so far
  std::set<std::string> purged;    // keys the test catalog purged
  catalog::IncomingDelta incoming;
  catalog::RemoteVector remote;
  std::vector<uint32_t> advanced;
  double now = 0;

  // Delivers `delta` to both sides; a delta that asks for records gets
  // the push-back compared, and returned to `asker` when given.
  auto deliver = [&](const CatalogDelta& delta, ReferenceCatalog* asker) {
    if (rng.NextBool()) {
      ASSERT_EQ(impl.Apply(delta, now), ref.Apply(delta, now));
    } else {
      // The wire path. Both sides apply what the bytes carry: an area
      // that does not parse back to itself arrives parsed, and a shuffled
      // body lists what its sorted twin lists.
      const std::string body = shuffle_rng.NextBool()
                                   ? ShuffledDelta(delta, &shuffle_rng)
                                   : delta.ToXml();
      const CatalogDelta twin = *CatalogDelta::FromXml(body);
      const size_t want = ref.Apply(twin, now);
      ASSERT_TRUE(impl.ReadDelta(body, &incoming).ok()) << body;
      ASSERT_EQ(impl.Apply(&incoming, now), want) << body;
      ASSERT_EQ(incoming.origins.size(), delta.size());
      std::string pushed;
      const CatalogDelta back = ref.PushBack(twin.wants);
      ASSERT_EQ(impl.WritePushBack(incoming.wants, &pushed), back.size());
      ASSERT_EQ(pushed, back.empty() ? "" : back.ToXml());
    }
    if (asker != nullptr && !delta.wants.empty()) {
      asker->Apply(ref.PushBack(delta.wants), now);
    }
  };

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                 std::to_string(op));
    now += 0.25 * static_cast<double>(rng.NextBelow(9));
    ReferenceCatalog& src = sources[rng.NextBelow(sources.size())];
    switch (rng.NextBelow(18)) {
      case 0: {  // own assertion, on both sides
        const SyncEntry fact = RandomFact(&rng);
        const double ttl = RandomTtl(&rng);
        ref.UpsertLocal(fact, ttl, now);
        impl.UpsertLocal(fact, ttl, now);
        break;
      }
      case 1: {  // own withdrawal: usually of a stored fact
        SyncEntry fact = RandomFact(&rng);
        for (const auto& [key, rec] : ref.records()) {
          if (rec.version.origin == kSelf &&
              rec.entry.kind != SyncEntryKind::kPresence &&
              rng.NextBool(0.5)) {
            fact = rec.entry;
            break;
          }
        }
        ref.TombstoneLocal(fact, now);
        impl.TombstoneLocal(fact, now);
        break;
      }
      case 2: {  // a heartbeat, or a hello
        const double ttl = RandomTtl(&rng);
        ref.BumpPresence(ttl, now);
        impl.BumpPresence(ttl, now);
        break;
      }
      case 3:
        ref.RestampOwn(now);
        impl.RestampOwn(now);
        break;
      case 4:  // a source asserts
      case 5:
        src.UpsertLocal(RandomFact(&rng), RandomTtl(&rng), now);
        break;
      case 6: {  // a source withdraws one fact, or says goodbye
        std::vector<SyncEntry> own;
        for (const auto& [key, rec] : src.records()) {
          if (rec.version.origin == src.self() && !rec.tombstone &&
              rec.entry.kind != SyncEntryKind::kPresence) {
            own.push_back(rec.entry);
          }
        }
        if (rng.NextBool(0.25)) {
          // Goodbye: every own live fact, then the presence record.
          for (const auto& entry : own) src.TombstoneLocal(entry, now);
          src.TombstoneLocal(ReferenceCatalog::Presence(), now);
        } else if (own.empty() || rng.NextBool(0.2)) {
          src.TombstoneLocal(RandomFact(&rng), now);
        } else {
          src.TombstoneLocal(own[rng.NextBelow(own.size())], now);
        }
        break;
      }
      case 7:
        src.BumpPresence(RandomTtl(&rng), now);
        break;
      case 8:
        src.RestampOwn(now);
        if (rng.NextBool(0.5)) src.Greet(RandomTtl(&rng), now);
        break;
      case 9: {  // sources gossip: third-party records and echoes
        ReferenceCatalog& other = sources[rng.NextBelow(sources.size())];
        src.Apply(other.DeltaSince(src.vector()), now);
        if (rng.NextBool(0.5)) src.Apply(ref.DeltaSince(src.vector()), now);
        break;
      }
      case 10:  // a fresh delta, sometimes asking for records back
      case 11: {
        CatalogDelta delta = src.DeltaSince(RandomCut(&rng, ref.vector()));
        if (rng.NextBool(0.4)) delta.wants = RandomCut(&rng, src.vector());
        sent.push_back(delta);
        deliver(delta, &src);
        break;
      }
      case 12: {  // a stale, duplicated or reordered delta
        if (sent.empty()) break;
        CatalogDelta delta = sent[rng.NextBelow(sent.size())];
        if (rng.NextBool(0.5)) rng.Shuffle(&delta.records);
        deliver(delta, nullptr);
        break;
      }
      case 13: {  // a gossip tick: on, just past, or beside a TTL boundary
        double at = now;
        if (!ref.vector().empty() && rng.NextBool(0.7)) {
          auto vit = ref.vector().begin();
          std::advance(vit, rng.NextBelow(ref.vector().size()));
          const double edge =
              ref.LastHeard(vit->first) + ref.OriginTtl(vit->first);
          switch (rng.NextBelow(3)) {
            case 0: at = edge; break;
            case 1:
              at = std::nextafter(edge, std::numeric_limits<double>::max());
              break;
            default: at = edge + 0.25; break;
          }
        }
        now = std::max(now, at);
        ASSERT_EQ(impl.ExpireSilent(at), ref.ExpireSilent(at));
        break;
      }
      case 14: {
        const double min_age = static_cast<double>(rng.NextBelow(4));
        const auto before = impl.records();
        ASSERT_EQ(impl.PurgeTombstones(now, min_age),
                  ref.PurgeTombstones(now, min_age));
        const auto after = impl.records();
        for (const auto& [key, rec] : before) {
          if (after.count(key) == 0) purged.insert(key);
        }
        break;
      }
      case 16: {  // a source digests the test catalog: absorb, then reply
        const Digest d = src.digest();
        const std::string digest_body =
            shuffle_rng.NextBool()
                ? ShuffledDigest(d, /*strangers=*/false, &shuffle_rng)
                : catalog::DigestToXml(d);
        ASSERT_TRUE(impl.ReadDigest(digest_body, &remote).ok());
        advanced.clear();
        ASSERT_EQ(impl.Absorb(remote, now, &advanced), ref.Absorb(d, now));
        const CatalogDelta reply = ref.ReplyTo(d);
        std::string body;
        ASSERT_EQ(impl.WriteReply(remote, &body), reply.size());
        ASSERT_EQ(body, reply.empty() ? "" : reply.ToXml());
        if (reply.empty()) break;
        src.Apply(*CatalogDelta::FromXml(body), now);
        if (!reply.wants.empty()) {
          sent.push_back(src.PushBack(reply.wants));
          deliver(sent.back(), nullptr);
        }
        break;
      }
      case 17: {  // the test catalog digests a source
        const Digest d = ref.digest();
        src.Absorb(d, now);
        const CatalogDelta reply = src.ReplyTo(d);
        if (reply.empty()) break;
        sent.push_back(reply);
        deliver(reply, &src);
        break;
      }
      default:  // statements come back by re-registration
        if (ref_proj.statements().size() < kStatements.size()) {
          ref_proj.AddStatement(*catalog::IntensionalStatement::Parse(
              kStatements[rng.NextBelow(kStatements.size())]));
          impl_proj.AddStatement(ref_proj.statements().back());
        }
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
    ExpectSame(ref, ref_proj, impl, impl_proj, now, &rng, &shuffle_rng);
    if (::testing::Test::HasFatalFailure()) return;
    ExpectInvariant(impl, sources, purged);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SyncIndexEquivalence, MatchesRecordScanningReference) {
  const size_t seeds = EquivSeeds(100);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    RunSeed(seed, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mqp
