// Differential sweep for the sync layer's bookkeeping: VersionedCatalog,
// which keeps its state in a per-catalog address table (DESIGN.md §3,
// Cost), against ReferenceCatalog below — the record-scanning
// implementation it replaced, kept here as the oracle. Both sides share
// the codec (VersionedRecord, CatalogDelta, digests), so only the
// bookkeeping is compared. Seeded op sequences drive both sides; after
// every op the records, vector, liveness, projection and the bytes of
// every delta and digest must match exactly. This is the only oracle
// that exercises TTL expiry exactly: the runtime churn equivalence
// keeps TTL boundaries out of reach on purpose.
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

namespace mqp {
namespace {

using catalog::Catalog;
using catalog::CatalogDelta;
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

bool RefDominates(const VersionVector& a, const VersionVector& b) {
  for (const auto& [origin, seq] : b) {
    auto it = a.find(origin);
    if (it == a.end() || it->second < seq) return false;
  }
  return true;
}

class ReferenceCatalog {
 public:
  ReferenceCatalog(std::string self, Catalog* projection)
      : self_(std::move(self)), projection_(projection) {}

  const std::string& self() const { return self_; }
  const VersionVector& vector() const { return vector_; }
  const std::map<std::string, VersionedRecord>& records() const {
    return records_;
  }

  void UpsertLocal(SyncEntry entry, double ttl_seconds, double now) {
    VersionedRecord rec;
    rec.version = {self_, ++next_sequence_};
    rec.entry = std::move(entry);
    rec.ttl_seconds = ttl_seconds;
    rec.stamped_at = now;
    vector_[self_] = rec.version.sequence;
    last_heard_[self_] = now;
    const std::string key = rec.Key();
    RetireReplacedProjection(key, rec);
    Project(rec);
    records_[key] = std::move(rec);
  }

  void TombstoneLocal(const SyncEntry& entry, double now) {
    VersionedRecord rec;
    rec.version = {self_, ++next_sequence_};
    rec.entry = entry;
    rec.tombstone = true;
    rec.stamped_at = now;
    vector_[self_] = rec.version.sequence;
    last_heard_[self_] = now;
    const std::string key = rec.Key();
    RetireReplacedProjection(key, rec);
    records_[key] = rec;
    Unproject(rec);
  }

  void BumpPresence(double ttl_seconds, double now) {
    SyncEntry presence;
    presence.kind = SyncEntryKind::kPresence;
    UpsertLocal(std::move(presence), ttl_seconds, now);
  }

  void RestampOwn(double now) {
    for (auto& [key, rec] : records_) {
      if (rec.version.origin != self_ || rec.tombstone) continue;
      rec.version.sequence = ++next_sequence_;
      rec.stamped_at = now;
      vector_[self_] = rec.version.sequence;
      Project(rec);
    }
    last_heard_[self_] = now;
  }

  CatalogDelta DeltaSince(const VersionVector& remote) const {
    CatalogDelta delta;
    for (const auto& [key, rec] : records_) {
      auto it = remote.find(rec.version.origin);
      const uint64_t seen = it == remote.end() ? 0 : it->second;
      if (rec.version.sequence > seen) delta.records.push_back(rec);
    }
    return delta;
  }

  size_t Apply(const CatalogDelta& delta, double now) {
    size_t changed = 0;
    for (const VersionedRecord& incoming : delta.records) {
      const std::string& origin = incoming.version.origin;
      uint64_t& high = vector_[origin];
      const bool fresh = incoming.version.sequence > high;
      if (fresh) {
        high = incoming.version.sequence;
        last_heard_[origin] = now;
        if (origin == self_) next_sequence_ = std::max(next_sequence_, high);
        if (expired_origins_.count(origin) > 0) {
          expired_origins_.erase(origin);
          for (const auto& [k, rec] : records_) {
            if (rec.version.origin == origin && !rec.tombstone) Project(rec);
          }
        }
      }
      const std::string key = incoming.Key();
      auto it = records_.find(key);
      if (it != records_.end() &&
          !incoming.version.Newer(it->second.version)) {
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

  size_t PurgeTombstones(double now, double min_age) {
    std::map<std::string, uint64_t> max_seq;
    for (const auto& [key, rec] : records_) {
      uint64_t& high = max_seq[rec.version.origin];
      high = std::max(high, rec.version.sequence);
    }
    size_t purged = 0;
    for (auto it = records_.begin(); it != records_.end();) {
      const VersionedRecord& rec = it->second;
      if (rec.tombstone && now - rec.stamped_at >= min_age &&
          rec.version.sequence != max_seq[rec.version.origin]) {
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

 private:
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
// digest), a random cut below a source's, or either plus origins nobody
// knows.
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

void SeedStatements(Catalog* catalog) {
  for (const auto& text : kStatements) {
    catalog->AddStatement(*catalog::IntensionalStatement::Parse(text));
  }
}

// Everything observable must match: records (stamps included), vector,
// liveness, projection, and the bytes of deltas and digests.
void ExpectSame(const ReferenceCatalog& ref, const Catalog& ref_proj,
                const VersionedCatalog& impl, const Catalog& impl_proj,
                double now, Rng* rng) {
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
  for (const auto& name : kNames) {
    ASSERT_EQ(impl.LastHeard(name), ref.LastHeard(name)) << name;
  }
  for (double at : {now, now + 3, now + 7}) {
    ASSERT_EQ(impl.LiveOrigins(at), ref.LiveOrigins(at)) << at;
  }
  ASSERT_EQ(impl.DigestXml(), catalog::DigestToXml(ref.vector()));

  std::vector<VersionVector> probes = {{}, ref.vector()};
  for (int i = 0; i < 3; ++i) {
    probes.push_back(RandomVector(rng, ref.vector(), ref.vector()));
  }
  catalog::RemoteVector remote;
  for (const auto& v : probes) {
    const CatalogDelta want = ref.DeltaSince(v);
    ASSERT_EQ(impl.DeltaSince(v).ToXml(), want.ToXml());
    // The wire path: the same delta from the dense vector, attached or not.
    ASSERT_TRUE(impl.ReadDigest(catalog::DigestToXml(v), &remote).ok());
    ASSERT_EQ(impl.Dominates(remote), RefDominates(ref.vector(), v));
    const bool attach = rng->NextBool();
    CatalogDelta framed = want;
    if (attach) framed.sender_vector = ref.vector();
    std::string body;
    ASSERT_EQ(impl.WriteDelta(remote, attach, &body), want.size());
    ASSERT_EQ(body, want.empty() ? "" : framed.ToXml());
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

// Runs one seeded op sequence; fails at the first divergence.
void RunSeed(uint64_t seed, int ops) {
  Rng rng(seed);
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
  catalog::IncomingDelta incoming;
  double now = 0;

  auto deliver = [&](const CatalogDelta& delta) {
    if (rng.NextBool()) {
      ASSERT_EQ(impl.Apply(delta, now), ref.Apply(delta, now));
      return;
    }
    // The wire path, pushing back against the piggybacked vector after.
    // Both sides apply what the bytes carry: an area that does not parse
    // back to itself arrives parsed.
    const std::string body = delta.ToXml();
    const size_t want = ref.Apply(*CatalogDelta::FromXml(body), now);
    ASSERT_TRUE(impl.ReadDelta(body, &incoming).ok());
    ASSERT_EQ(impl.Apply(&incoming, now), want);
    ASSERT_EQ(incoming.origins.size(), delta.size());
    std::string pushed;
    const CatalogDelta back = ref.DeltaSince(delta.sender_vector);
    ASSERT_EQ(impl.WriteDelta(incoming.sender, false, &pushed), back.size());
    ASSERT_EQ(pushed, back.empty() ? "" : back.ToXml());
  };

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                 std::to_string(op));
    now += 0.25 * static_cast<double>(rng.NextBelow(9));
    ReferenceCatalog& src = sources[rng.NextBelow(sources.size())];
    switch (rng.NextBelow(16)) {
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
      case 2: {
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
          if (rec.version.origin == src.self() && !rec.tombstone) {
            own.push_back(rec.entry);
          }
        }
        if (rng.NextBool(0.25)) {
          // Goodbye: every own live record, presence included.
          for (const auto& entry : own) src.TombstoneLocal(entry, now);
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
        break;
      case 9: {  // sources gossip: third-party records and echoes
        ReferenceCatalog& other = sources[rng.NextBelow(sources.size())];
        src.Apply(other.DeltaSince(src.vector()), now);
        if (rng.NextBool(0.5)) src.Apply(ref.DeltaSince(src.vector()), now);
        break;
      }
      case 10:  // a fresh delta
      case 11: {
        CatalogDelta delta =
            src.DeltaSince(RandomVector(&rng, ref.vector(), src.vector()));
        if (rng.NextBool(0.4)) {
          delta.sender_vector = src.vector();
          if (rng.NextBool(0.3)) delta.sender_vector["zz"] = 3;
        }
        sent.push_back(delta);
        deliver(delta);
        break;
      }
      case 12: {  // a stale, duplicated or reordered delta
        if (sent.empty()) break;
        CatalogDelta delta = sent[rng.NextBelow(sent.size())];
        if (rng.NextBool(0.5)) rng.Shuffle(&delta.records);
        deliver(delta);
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
        ASSERT_EQ(impl.PurgeTombstones(now, min_age),
                  ref.PurgeTombstones(now, min_age));
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
    ExpectSame(ref, ref_proj, impl, impl_proj, now, &rng);
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
