// Dynamic catalog maintenance: versioned records, CatalogDelta merge
// semantics, gossip/anti-entropy convergence, TTL expiry and churn.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "net/simulator.h"
#include "catalog/versioned.h"
#include "peer/peer.h"
#include "sync/gossip.h"
#include "workload/churn.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using catalog::Catalog;
using catalog::CatalogDelta;
using catalog::HoldingLevel;
using catalog::SyncEntry;
using catalog::SyncEntryKind;
using catalog::VersionedCatalog;
using catalog::VersionVector;
using peer::Peer;
using peer::PeerOptions;
using peer::QueryOutcome;

SyncEntry AreaEntry(const std::string& server, const std::string& area,
                    const std::string& xpath = "", int delay = 0) {
  SyncEntry se;
  se.kind = SyncEntryKind::kArea;
  se.entry.level = HoldingLevel::kBase;
  se.entry.area = *ns::InterestArea::Parse(area);
  se.entry.server = server;
  se.entry.xpath = xpath;
  se.entry.delay_minutes = delay;
  return se;
}

SyncEntry NamedEntry(const std::string& urn, const std::string& server,
                     const std::string& xpath) {
  SyncEntry se;
  se.kind = SyncEntryKind::kNamed;
  se.urn = urn;
  se.entry.level = HoldingLevel::kBase;
  se.entry.server = server;
  se.entry.xpath = xpath;
  return se;
}

TEST(VersionedCatalogTest, DigestXmlRoundTrip) {
  // One entry a heartbeat moved past its newest record, one whose newest
  // sequence is a record (f is then left out), one with no record at all.
  const catalog::Digest v{{"10.0.0.1:9020", {7, 3}},
                          {"10.0.0.2:9020", {123, 123}},
                          {"10.0.0.3:9020", {5, 0}}};
  const std::string xml = catalog::DigestToXml(v);
  EXPECT_EQ(xml,
            "<digest><v o=\"10.0.0.1:9020\" s=\"7\" f=\"3\"/>"
            "<v o=\"10.0.0.2:9020\" s=\"123\"/>"
            "<v o=\"10.0.0.3:9020\" s=\"5\" f=\"0\"/></digest>");
  auto back = catalog::DigestFromXml(xml);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, v);
  auto empty = catalog::DigestFromXml(catalog::DigestToXml({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(catalog::DigestFromXml("<delta/>").ok());
  EXPECT_FALSE(catalog::DigestFromXml("not xml").ok());
}

TEST(VersionedCatalogTest, DeltaXmlRoundTrip) {
  // Every record kind — an area fact (tombstoned), a named fact and a
  // goodbye — plus a heartbeat entry and a want.
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]", 15), 60, 0);
  origin.UpsertLocal(NamedEntry("urn:CD:Tracks", "A", "/data[id=c1]"), 60, 0);
  origin.TombstoneLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]", 15), 1);
  origin.TombstoneLocal({SyncEntryKind::kPresence, {}, {}}, 1);
  origin.BumpPresence(60, 2);
  CatalogDelta delta = origin.DeltaSince({});
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta.heartbeats, (VersionVector{{"A", 5}}));
  delta.wants = {{"B", 2}};
  auto back = CatalogDelta::FromXml(delta.ToXml());
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), delta.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    EXPECT_EQ(back->records[i], delta.records[i]) << i;
  }
  EXPECT_EQ(back->heartbeats, delta.heartbeats);
  EXPECT_EQ(back->wants, delta.wants);
  EXPECT_FALSE(CatalogDelta::FromXml("<digest/>").ok());
}

// A delta body holding one record with `attrs` spliced into it.
std::string OneRecordDelta(const std::string& attrs) {
  return "<delta><rec o='A' s='1' k='area' area='(USA,*)' server='S' " +
         attrs + "/></delta>";
}

// Both decoders of a delta body — the map-based codec and the catalog's
// wire read — accept or reject the same bytes.
void ExpectDecodes(const std::string& body, bool ok) {
  EXPECT_EQ(CatalogDelta::FromXml(body).ok(), ok) << body;
  VersionedCatalog catalog("B", nullptr);
  catalog::IncomingDelta incoming;
  EXPECT_EQ(catalog.ReadDelta(body, &incoming).ok(), ok) << body;
}

TEST(VersionedCatalogTest, DeltaRecordTombMustBeZeroOrOne) {
  ExpectDecodes(OneRecordDelta("tomb='true'"), false);
  ExpectDecodes(OneRecordDelta("tomb='1'"), true);
  ExpectDecodes(OneRecordDelta("tomb='0'"), true);
  EXPECT_TRUE(CatalogDelta::FromXml(OneRecordDelta("tomb='1'"))
                  ->records[0]
                  .tombstone);
}

TEST(VersionedCatalogTest, DeltaRecordTtlMustBeANonNegativeInteger) {
  ExpectDecodes(OneRecordDelta("ttl='soon'"), false);
  ExpectDecodes(OneRecordDelta("ttl='-5'"), false);
  ExpectDecodes(OneRecordDelta("ttl='5'"), true);
  EXPECT_EQ(CatalogDelta::FromXml(OneRecordDelta("ttl='5'"))
                ->records[0]
                .ttl_seconds,
            5);
}

TEST(VersionedCatalogTest, DeltaRecordLevelMustBeBaseOrIndex) {
  ExpectDecodes(OneRecordDelta("level='bogus'"), false);
  ExpectDecodes(OneRecordDelta("level='base'"), true);
  ExpectDecodes(OneRecordDelta("level='index'"), true);
  EXPECT_EQ(CatalogDelta::FromXml(OneRecordDelta("level='index'"))
                ->records[0]
                .entry.entry.level,
            HoldingLevel::kIndex);
}

TEST(VersionedCatalogTest, DeltaRecordDelayMustBeAnInt) {
  ExpectDecodes(OneRecordDelta("delay='x'"), false);
  ExpectDecodes(OneRecordDelta("delay='4294967311'"), false);
  ExpectDecodes(OneRecordDelta("delay='-2147483649'"), false);
  ExpectDecodes(OneRecordDelta("delay='15'"), true);
  EXPECT_EQ(CatalogDelta::FromXml(OneRecordDelta("delay='15'"))
                ->records[0]
                .entry.entry.delay_minutes,
            15);
}

TEST(VersionedCatalogTest, DeltaRecordIdentityFieldsRejectThePipe) {
  // Key() joins origin, urn, area and server with '|'.
  ExpectDecodes("<delta><rec o='A|x' s='1' k='presence'/></delta>", false);
  ExpectDecodes("<delta><rec o='A' s='1' k='presence'/></delta>", true);
  ExpectDecodes(OneRecordDelta("urn='urn:X|Y'"), false);
  ExpectDecodes(OneRecordDelta("urn='urn:X:Y'"), true);
  ExpectDecodes("<delta><rec o='A' s='1' area='(USA,*)' server='S|T'/>"
                "</delta>",
                false);
  ExpectDecodes("<delta><rec o='A' s='1' area='(US|A,*)' server='S'/>"
                "</delta>",
                false);
  ExpectDecodes("<delta><rec o='A' s='1' area='(USA,*)' server='S'/>"
                "</delta>",
                true);
}

TEST(VersionedCatalogTest, DigestListingAnOriginTwiceKeepsTheLast) {
  auto v = catalog::DigestFromXml(
      "<digest><v o='A' s='5'/><v o='A' s='2'/></digest>");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (catalog::Digest{{"A", {2, 2}}}));
  // The catalog's dense read means the same: A's records and heartbeats
  // past 2 are missing there; listed the other way round, nothing is.
  VersionedCatalog a("A", nullptr);
  a.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  a.UpsertLocal(AreaEntry("A", "(USA.WA,*)", "/data[id=c1]"), 60, 0);
  a.UpsertLocal(AreaEntry("A", "(France,*)", "/data[id=c2]"), 60, 0);
  for (int i = 1; i < 3; ++i) a.BumpPresence(60, i);
  catalog::RemoteVector remote;
  std::string body;
  ASSERT_TRUE(a.ReadDigest("<digest><v o='A' s='5'/><v o='A' s='2'/>"
                           "</digest>",
                           &remote)
                  .ok());
  EXPECT_EQ(a.WriteReply(remote, &body), 1u);
  EXPECT_EQ(body, a.DeltaSince({{"A", 2}}).ToXml());
  ASSERT_TRUE(a.ReadDigest("<digest><v o='A' s='2'/><v o='A' s='5'/>"
                           "</digest>",
                           &remote)
                  .ok());
  body.clear();
  EXPECT_EQ(a.WriteReply(remote, &body), 0u);
  EXPECT_TRUE(body.empty());
  // So for an origin the catalog does not know: one want, at 0.
  ASSERT_TRUE(a.ReadDigest("<digest><v o='Z' s='5'/><v o='A' s='5'/>"
                           "<v o='B' s='1'/><v o='Z' s='2'/></digest>",
                           &remote)
                  .ok());
  EXPECT_EQ(a.WriteReply(remote, &body), 0u);
  EXPECT_EQ(body,
            "<delta><want o=\"B\" s=\"0\"/><want o=\"Z\" s=\"0\"/>"
            "</delta>");
}

TEST(VersionedCatalogTest, ApplyIsIdempotent) {
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  origin.UpsertLocal(AreaEntry("A", "(USA.WA,*)", "/data[id=c1]"), 60, 0);
  const CatalogDelta delta = origin.DeltaSince({});

  Catalog proj;
  VersionedCatalog replica("B", &proj);
  EXPECT_EQ(replica.Apply(delta, 1.0), 2u);
  EXPECT_EQ(proj.entries().size(), 2u);
  // Same delta again: nothing changes.
  EXPECT_EQ(replica.Apply(delta, 2.0), 0u);
  EXPECT_EQ(proj.entries().size(), 2u);
  EXPECT_EQ(replica.records(), origin.records());
  EXPECT_EQ(replica.vector(), origin.vector());
}

TEST(VersionedCatalogTest, ApplyIsCommutative) {
  VersionedCatalog a("A", nullptr);
  a.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  const CatalogDelta first = a.DeltaSince({});
  // A second, newer version of the same record plus a new fact.
  a.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 120, 5);
  a.UpsertLocal(AreaEntry("A", "(France,*)", "/data[id=c1]"), 60, 5);
  ASSERT_EQ(first.records[0].version.sequence, 1u);
  const CatalogDelta second = a.DeltaSince(VersionVector{{"A", 1}});
  VersionedCatalog b("B", nullptr);
  b.UpsertLocal(AreaEntry("B", "(USA.WA,*)", "/data[id=c2]"), 60, 0);
  const CatalogDelta theirs = b.DeltaSince({});

  Catalog proj_x, proj_y;
  VersionedCatalog x("X", &proj_x);
  VersionedCatalog y("Y", &proj_y);
  // x: first, second, theirs. y: theirs, second, first.
  x.Apply(first, 1);
  x.Apply(second, 2);
  x.Apply(theirs, 3);
  y.Apply(theirs, 1);
  y.Apply(second, 2);
  y.Apply(first, 3);  // stale versions: must lose LWW
  EXPECT_EQ(x.records(), y.records());
  EXPECT_EQ(x.vector(), y.vector());
  EXPECT_EQ(proj_x.entries().size(), proj_y.entries().size());
  // The newer TTL (120) won on both, regardless of order.
  for (const auto& [key, rec] : y.records()) {
    if (rec.entry.entry.area.ToString() == "(USA.OR,*)") {
      EXPECT_EQ(rec.ttl_seconds, 120);
    }
  }
}

TEST(VersionedCatalogTest, TombstoneRemovesProjectionThenPurges) {
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  origin.UpsertLocal(NamedEntry("urn:X:Y", "A", "/data[id=c1]"), 60, 0);

  Catalog proj;
  VersionedCatalog replica("B", &proj);
  replica.Apply(origin.DeltaSince({}), 0);
  EXPECT_EQ(proj.entries().size(), 1u);
  EXPECT_FALSE(proj.Resolve("urn:X:Y")->empty());

  origin.TombstoneLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 10);
  origin.TombstoneLocal(NamedEntry("urn:X:Y", "A", "/data[id=c1]"), 10);
  replica.Apply(origin.DeltaSince(replica.vector()), 10);
  EXPECT_TRUE(proj.entries().empty());
  EXPECT_TRUE(proj.Resolve("urn:X:Y")->empty());
  // The tombstones linger (so late gossip cannot resurrect the entries)…
  size_t tombs = 0;
  for (const auto& [key, rec] : replica.records()) {
    tombs += rec.tombstone ? 1 : 0;
  }
  EXPECT_EQ(tombs, 2u);
  // …until the GC horizon passes. The origin's *newest* record survives
  // the purge: it carries A's final sequence, which a peer joining after
  // the GC must still be able to absorb (vectors only grow via records —
  // purging it would leave every future digest exchange chasing an
  // untransferable gap).
  EXPECT_EQ(replica.PurgeTombstones(/*now=*/700, /*min_age=*/600), 1u);
  EXPECT_EQ(replica.PurgeTombstones(700, 600), 0u);
  ASSERT_EQ(replica.records().size(), 1u);
  const auto kept = replica.records().begin()->second;
  EXPECT_TRUE(kept.tombstone);
  EXPECT_EQ(kept.version.sequence, replica.vector().at("A"));
  // A late joiner still converges on A's final sequence.
  VersionedCatalog late("L", nullptr);
  late.Apply(replica.DeltaSince({}), 701);
  EXPECT_EQ(late.vector().at("A"), replica.vector().at("A"));
}

TEST(VersionedCatalogTest, PurgeKeepsTheNewestRecordBelowHeartbeats) {
  // Heartbeats move A's sequence past its newest record. The purge keeps
  // that record (it is stamped fact_seq), and the heartbeat entry that
  // travels with it carries the rest of the sequence.
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  origin.UpsertLocal(AreaEntry("A", "(USA.WA,*)", "/data[id=c1]"), 60, 0);
  origin.UpsertLocal(AreaEntry("A", "(France,*)", "/data[id=c2]"), 60, 0);
  origin.TombstoneLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 1);
  origin.TombstoneLocal(AreaEntry("A", "(USA.WA,*)", "/data[id=c1]"), 1);
  origin.BumpPresence(60, 2);
  origin.BumpPresence(60, 3);
  VersionedCatalog replica("B", nullptr);
  replica.Apply(origin.DeltaSince({}), 3);
  EXPECT_EQ(replica.digest().at("A"), (catalog::VectorEntry{7, 5}));
  EXPECT_EQ(replica.PurgeTombstones(/*now=*/700, /*min_age=*/600), 1u);
  const auto records = replica.records();
  ASSERT_EQ(records.size(), 2u);
  size_t newest = 0;
  for (const auto& [key, rec] : records) {
    newest = std::max<size_t>(newest, rec.version.sequence);
  }
  EXPECT_EQ(newest, 5u);
  VersionedCatalog late("L", nullptr);
  late.Apply(replica.DeltaSince({}), 701);
  EXPECT_EQ(late.digest().at("A"), replica.digest().at("A"));
}

TEST(VersionedCatalogTest, ChangedDelayReplacesProjectedEntry) {
  // Regression: delay_minutes is not part of record identity, but it IS
  // part of IndexEntry equality — a re-assertion with a new delay must
  // withdraw the old shape from the projection, not leave both.
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("S", "(USA.OR,*)", "/data[id=c0]", 0), 60, 0);
  Catalog proj;
  VersionedCatalog replica("B", &proj);
  replica.Apply(origin.DeltaSince({}), 0);
  ASSERT_EQ(proj.entries().size(), 1u);
  EXPECT_EQ(proj.entries()[0].delay_minutes, 0);

  origin.UpsertLocal(AreaEntry("S", "(USA.OR,*)", "/data[id=c0]", 15), 60, 1);
  replica.Apply(origin.DeltaSince(replica.vector()), 1);
  ASSERT_EQ(proj.entries().size(), 1u);
  EXPECT_EQ(proj.entries()[0].delay_minutes, 15);

  // And a tombstone built from either shape clears the projection.
  origin.TombstoneLocal(AreaEntry("S", "(USA.OR,*)", "/data[id=c0]", 0), 2);
  replica.Apply(origin.DeltaSince(replica.vector()), 2);
  EXPECT_TRUE(proj.entries().empty());
}

TEST(VersionedCatalogTest, ExpiryDropsStatementsNamingTheGoneServer) {
  using catalog::IntensionalStatement;
  Catalog proj;
  proj.AddStatement(
      *IntensionalStatement::Parse("base[(USA,*)]@S = base[(USA,*)]@T"));
  proj.AddStatement(*IntensionalStatement::Parse(
      "base[(France,*)]@U >= base[(France,*)]@V{10}"));
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("S", "(USA,*)", "/data[id=c0]"), /*ttl=*/30, 0);
  Catalog* projection = &proj;
  VersionedCatalog replica("B", projection);
  replica.Apply(origin.DeltaSince({}), 0);
  EXPECT_EQ(proj.statements().size(), 2u);
  // S's TTL lapses: its last live entry leaves the projection, and the
  // statement steering bindings at S goes with it (same hazard the
  // RemoveServer regression covers, reached through the sync path).
  replica.ExpireSilent(31);
  ASSERT_EQ(proj.statements().size(), 1u);
  EXPECT_EQ(proj.statements()[0].lhs.server, "U");
  EXPECT_TRUE(proj.entries().empty());
}

TEST(VersionedCatalogTest, SilentOriginExpiresAndRefreshReinstates) {
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), /*ttl=*/30,
                     0);
  Catalog proj;
  VersionedCatalog replica("B", &proj);
  replica.Apply(origin.DeltaSince({}), /*now=*/0);
  EXPECT_EQ(proj.entries().size(), 1u);

  // Within TTL: nothing expires.
  EXPECT_TRUE(replica.ExpireSilent(20).empty());
  EXPECT_EQ(proj.entries().size(), 1u);
  // Origin silent past its TTL: projection drops its entries; the
  // records (and the version vector) stay for convergence.
  EXPECT_EQ(replica.ExpireSilent(31), std::vector<std::string>{"A"});
  EXPECT_TRUE(proj.entries().empty());
  EXPECT_FALSE(replica.vector().empty());
  EXPECT_EQ(replica.LiveOrigins(31), std::vector<std::string>{"B"});

  // The origin refreshes (heartbeat): entries reappear.
  origin.BumpPresence(30, 40);
  replica.Apply(origin.DeltaSince(replica.vector()), 40);
  EXPECT_EQ(proj.entries().size(), 1u);
  EXPECT_TRUE(replica.ExpireSilent(41).empty());
}

TEST(VersionedCatalogTest, SharedFactSurvivesOneOriginsTombstone) {
  // Two origins assert the same fact; one withdraws — the projection
  // keeps it until the last asserter withdraws too.
  Catalog proj;
  VersionedCatalog replica("C", &proj);
  VersionedCatalog a("A", nullptr), b("B", nullptr);
  a.UpsertLocal(AreaEntry("S", "(USA.OR,*)", "/data[id=c0]"), 0, 0);
  b.UpsertLocal(AreaEntry("S", "(USA.OR,*)", "/data[id=c0]"), 0, 0);
  replica.Apply(a.DeltaSince({}), 0);
  replica.Apply(b.DeltaSince({}), 0);
  EXPECT_EQ(proj.entries().size(), 1u);  // Catalog dedups exact duplicates
  a.TombstoneLocal(AreaEntry("S", "(USA.OR,*)", "/data[id=c0]"), 1);
  replica.Apply(a.DeltaSince(replica.vector()), 1);
  EXPECT_EQ(proj.entries().size(), 1u);  // B still asserts it
  b.TombstoneLocal(AreaEntry("S", "(USA.OR,*)", "/data[id=c0]"), 2);
  replica.Apply(b.DeltaSince(replica.vector()), 2);
  EXPECT_TRUE(proj.entries().empty());
}

// --- heartbeats ride the version vector -----------------------------------------

TEST(VersionedCatalogTest, HeartbeatIsAbsorbedFromADigestWithNoDelta) {
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  Catalog proj;
  VersionedCatalog replica("B", &proj);
  replica.Apply(origin.DeltaSince({}), 0);
  // A heartbeat stamps no record, so there is nothing new to ship.
  origin.BumpPresence(60, 10);
  EXPECT_EQ(origin.records(), replica.records());
  EXPECT_EQ(origin.digest().at("A"), (catalog::VectorEntry{2, 1}));
  catalog::RemoteVector remote;
  ASSERT_TRUE(replica.ReadDigest(origin.DigestXml(), &remote).ok());
  std::vector<uint32_t> advanced;
  EXPECT_EQ(replica.Absorb(remote, 10, &advanced), 1u);
  EXPECT_EQ(replica.vector(), origin.vector());
  EXPECT_EQ(replica.LastHeard("A"), 10);
  // Nothing is left to send either way: the reply is empty.
  std::string body;
  EXPECT_EQ(replica.WriteReply(remote, &body), 0u);
  EXPECT_TRUE(body.empty());
  // An expired origin comes back from a heartbeat alone.
  EXPECT_EQ(replica.ExpireSilent(71), std::vector<std::string>{"A"});
  EXPECT_TRUE(proj.entries().empty());
  origin.BumpPresence(60, 80);
  ASSERT_TRUE(replica.ReadDigest(origin.DigestXml(), &remote).ok());
  EXPECT_EQ(replica.Absorb(remote, 80, &advanced), 1u);
  EXPECT_EQ(proj.entries().size(), 1u);
}

TEST(VersionedCatalogTest, FactGapPullsTheFacts) {
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  VersionedCatalog replica("B", nullptr);
  replica.Apply(origin.DeltaSince({}), 0);
  // A new fact, then a heartbeat: the digest's f is above B's seq.
  origin.UpsertLocal(AreaEntry("A", "(USA.WA,*)", "/data[id=c1]"), 60, 1);
  origin.BumpPresence(60, 2);
  catalog::RemoteVector remote;
  ASSERT_TRUE(replica.ReadDigest(origin.DigestXml(), &remote).ok());
  std::vector<uint32_t> advanced;
  EXPECT_EQ(replica.Absorb(remote, 2, &advanced), 0u);
  EXPECT_EQ(replica.vector().at("A"), 1u);
  // B's reply asks for A's records past its seq 1...
  std::string reply;
  EXPECT_EQ(replica.WriteReply(remote, &reply), 0u);
  EXPECT_EQ(reply, "<delta><want o=\"A\" s=\"1\"/></delta>");
  // ...and A's push-back carries the fact and the heartbeat past it.
  catalog::IncomingDelta incoming;
  ASSERT_TRUE(origin.ReadDelta(reply, &incoming).ok());
  origin.Apply(&incoming, 2);
  std::string push;
  EXPECT_EQ(origin.WritePushBack(incoming.wants, &push), 1u);
  ASSERT_TRUE(replica.ReadDelta(push, &incoming).ok());
  EXPECT_EQ(replica.Apply(&incoming, 3), 1u);
  EXPECT_EQ(replica.records(), origin.records());
  EXPECT_EQ(replica.digest(), origin.digest());
}

TEST(VersionedCatalogTest, RemoteFactSeqAboveLocalSeqIsNeverAbsorbed) {
  VersionedCatalog origin("A", nullptr);
  origin.UpsertLocal(AreaEntry("A", "(USA.OR,*)", "/data[id=c0]"), 60, 0);
  origin.UpsertLocal(AreaEntry("A", "(USA.WA,*)", "/data[id=c1]"), 60, 0);
  VersionedCatalog replica("B", nullptr);
  replica.Apply(origin.DeltaSince({}), 0);  // B holds A up to 2
  catalog::RemoteVector remote;
  std::vector<uint32_t> advanced;
  // f = 3 > 2: a record of A in (2, 9] may be missing here.
  ASSERT_TRUE(
      replica.ReadDigest("<digest><v o='A' s='9' f='3'/></digest>", &remote)
          .ok());
  EXPECT_EQ(replica.Absorb(remote, 1, &advanced), 0u);
  EXPECT_EQ(replica.vector().at("A"), 2u);
  // f = 2 proves none is.
  ASSERT_TRUE(
      replica.ReadDigest("<digest><v o='A' s='9' f='2'/></digest>", &remote)
          .ok());
  EXPECT_EQ(replica.Absorb(remote, 1, &advanced), 1u);
  EXPECT_EQ(replica.vector().at("A"), 9u);
  // A bare <v> claims a record at s: never absorbed past the local seq.
  ASSERT_TRUE(
      replica.ReadDigest("<digest><v o='A' s='12'/></digest>", &remote).ok());
  EXPECT_EQ(replica.Absorb(remote, 1, &advanced), 0u);
  // An origin the catalog does not know is neither absorbed nor interned.
  ASSERT_TRUE(
      replica.ReadDigest("<digest><v o='Z' s='4' f='0'/></digest>", &remote)
          .ok());
  EXPECT_EQ(replica.Absorb(remote, 1, &advanced), 0u);
  EXPECT_EQ(replica.vector().count("Z"), 0u);
  EXPECT_EQ(replica.FindAddress("Z"), VersionedCatalog::kNoAddress);
}

// Both decoders of a digest body — the map-based codec and the catalog's
// wire read — accept or reject the same bytes.
void ExpectDigestDecodes(const std::string& body, bool ok) {
  EXPECT_EQ(catalog::DigestFromXml(body).ok(), ok) << body;
  VersionedCatalog catalog("B", nullptr);
  catalog::RemoteVector remote;
  EXPECT_EQ(catalog.ReadDigest(body, &remote).ok(), ok) << body;
}

TEST(VersionedCatalogTest, VectorFactSeqMustBeAnIntegerNotAboveS) {
  ExpectDigestDecodes("<digest><v o='A' s='5' f='x'/></digest>", false);
  ExpectDigestDecodes("<digest><v o='A' s='5' f='3'/></digest>", true);
  ExpectDigestDecodes("<digest><v o='A' s='5' f='-1'/></digest>", false);
  ExpectDigestDecodes("<digest><v o='A' s='5' f='0'/></digest>", true);
  ExpectDigestDecodes("<digest><v o='A' s='5' f='6'/></digest>", false);
  ExpectDigestDecodes("<digest><v o='A' s='5' f='5'/></digest>", true);
  // The same element in a delta, through both delta decoders.
  ExpectDecodes("<delta><v o='A' s='5' f='x'/></delta>", false);
  ExpectDecodes("<delta><v o='A' s='5' f='6'/></delta>", false);
  ExpectDecodes("<delta><v o='A' s='5' f='4'/></delta>", true);
  ExpectDecodes("<delta><want o='A' s='-1'/></delta>", false);
  ExpectDecodes("<delta><want o='A' s='1'/></delta>", true);
}

TEST(VersionedCatalogTest, FactlessOriginSaysHelloAndExpiresByItsTtl) {
  // A client asserts no fact: its first refresh stamps a hello, which
  // interns it in the catalogs that hear of it and declares its TTL.
  VersionedCatalog client("C", nullptr);
  client.BumpPresence(30, 0);
  ASSERT_EQ(client.records().size(), 1u);
  EXPECT_EQ(client.records().begin()->second.entry.kind,
            SyncEntryKind::kPresence);
  client.BumpPresence(30, 10);  // the hello is live: a heartbeat now
  EXPECT_EQ(client.records().size(), 1u);
  EXPECT_EQ(client.digest().at("C"), (catalog::VectorEntry{2, 1}));
  VersionedCatalog replica("B", nullptr);
  replica.Apply(client.DeltaSince({}), 10);
  EXPECT_EQ(replica.vector(), client.vector());
  // Its TTL is the hello's, as a seller's is its facts'.
  EXPECT_TRUE(replica.ExpireSilent(40).empty());
  EXPECT_EQ(replica.ExpireSilent(41), std::vector<std::string>{"C"});
  // A goodbye tombstones the hello; Greet over it says hello again.
  client.TombstoneLocal({SyncEntryKind::kPresence, {}, {}}, 50);
  EXPECT_TRUE(client.records().begin()->second.tombstone);
  EXPECT_TRUE(client.Greet(30, 60));
  EXPECT_FALSE(client.records().begin()->second.tombstone);
  EXPECT_FALSE(client.Greet(30, 61));
}

sync::SyncOptions FastSync(uint64_t seed, double horizon) {
  sync::SyncOptions o;
  o.gossip_interval_seconds = 5;
  o.refresh_interval_seconds = 15;
  o.entry_ttl_seconds = 45;
  o.horizon_seconds = horizon;
  // Quiet tail: heartbeats stop at 2/3 of the horizon so the last stamps
  // can finish propagating before ticks stop (convergence checks).
  o.refresh_horizon_seconds = horizon * 2 / 3;
  o.seed = seed;
  return o;
}

TEST(SyncAgentTest, TwoPeerGossipConverges) {
  net::Simulator sim;
  PeerOptions ao;
  ao.name = "a";
  ao.roles.base = true;
  Peer a(&sim, ao);
  a.PublishCollection("c0", ns::MakeArea({"USA/OR/Portland", "Music"}),
                      algebra::ItemSet{});
  PeerOptions bo;
  bo.name = "b";
  bo.roles.index = true;
  bo.interest = ns::MakeArea({"USA/OR", "*"});
  Peer b(&sim, bo);
  a.AddBootstrap(b.address());
  a.EnableSync(FastSync(1, 60));
  b.EnableSync(FastSync(2, 60));
  sim.Run();
  // Both vectors identical; each side's catalog carries the other's facts.
  EXPECT_EQ(a.sync()->versioned().vector(), b.sync()->versioned().vector());
  bool b_knows_a = false;
  for (const auto& e : b.catalog().entries()) {
    if (e.server == a.address()) b_knows_a = true;
  }
  EXPECT_TRUE(b_knows_a);
  bool a_knows_b = false;
  for (const auto& e : a.catalog().entries()) {
    if (e.server == b.address() && e.level == HoldingLevel::kIndex) {
      a_knows_b = true;
    }
  }
  EXPECT_TRUE(a_knows_b);
  EXPECT_GT(a.sync()->counters().digests_sent, 0u);
  EXPECT_GT(b.sync()->counters().records_applied, 0u);
  // Refreshes are heartbeats, taken straight from the digests.
  EXPECT_GT(a.sync()->counters().heartbeats_absorbed +
                b.sync()->counters().heartbeats_absorbed,
            0u);
}

TEST(SyncAgentTest, GracefulDepartureTombstonesPropagate) {
  net::Simulator sim;
  PeerOptions ao;
  ao.name = "a";
  ao.roles.base = true;
  Peer a(&sim, ao);
  a.PublishCollection("c0", ns::MakeArea({"USA/OR/Portland", "Music"}),
                      algebra::ItemSet{});
  PeerOptions bo;
  bo.name = "b";
  bo.roles.index = true;
  bo.interest = ns::MakeArea({"USA/OR", "*"});
  Peer b(&sim, bo);
  a.AddBootstrap(b.address());
  a.EnableSync(FastSync(3, 40));
  b.EnableSync(FastSync(4, 40));
  sim.Run(20);
  bool b_knows_a = false;
  for (const auto& e : b.catalog().entries()) {
    if (e.server == a.address()) b_knows_a = true;
  }
  ASSERT_TRUE(b_knows_a);
  // A departs gracefully: the goodbye delta tombstones its facts at B,
  // and B prunes A from its partner pool.
  a.LeaveNetwork();
  sim.Run(25);
  for (const auto& e : b.catalog().entries()) {
    EXPECT_NE(e.server, a.address());
  }
  EXPECT_FALSE(b.sync()->HasPeer(a.address()));
  // A rejoins: it still holds its data, so the rejoin re-asserts it with
  // fresh stamps that overwrite the tombstones key-for-key.
  a.RejoinNetwork();
  sim.Run();
  bool b_knows_a_again = false;
  for (const auto& e : b.catalog().entries()) {
    if (e.server == a.address()) b_knows_a_again = true;
  }
  EXPECT_TRUE(b_knows_a_again);
  EXPECT_TRUE(b.sync()->HasPeer(a.address()));
}

TEST(SyncAgentTest, GoodbyePrunesASeed) {
  net::Simulator sim;
  PeerOptions ao;
  ao.name = "a";
  ao.roles.base = true;
  Peer a(&sim, ao);
  a.PublishCollection("c0", ns::MakeArea({"USA/OR/Portland", "Music"}),
                      algebra::ItemSet{});
  PeerOptions bo;
  bo.name = "b";
  bo.roles.index = true;
  bo.interest = ns::MakeArea({"USA/OR", "*"});
  Peer b(&sim, bo);
  a.AddBootstrap(b.address());
  b.AddBootstrap(a.address());  // a is b's seed: expiry never prunes it
  a.EnableSync(FastSync(5, 40));
  b.EnableSync(FastSync(6, 40));
  sim.Run(20);
  ASSERT_TRUE(b.sync()->HasPeer(a.address()));
  a.LeaveNetwork();
  sim.Run(25);
  EXPECT_FALSE(b.sync()->HasPeer(a.address()));
}

TEST(SyncAgentTest, HostileFactSeqIsOneDecodeRejectPerMessage) {
  net::Simulator sim;
  PeerOptions so;
  so.name = "server";
  so.roles.index = true;
  Peer server(&sim, so);
  sync::SyncOptions gossip;
  gossip.horizon_seconds = 1;
  server.EnableSync(gossip);
  PeerOptions co;
  co.name = "client";
  Peer client(&sim, co);
  auto send = [&](const char* kind, const std::string& body) {
    wire::Send(&sim, client.id(), server.id(),
               {kind, client.address(), 0, net::MakePayload(body)});
  };
  send(wire::kSyncDigestKind, "<digest><v o='A' s='5' f='x'/></digest>");
  send(wire::kSyncDigestKind, "<digest><v o='A' s='5' f='-1'/></digest>");
  send(wire::kSyncDigestKind, "<digest><v o='A' s='5' f='6'/></digest>");
  send(wire::kSyncDeltaKind, "<delta><v o='A' s='5' f='6'/></delta>");
  sim.Run();
  EXPECT_EQ(server.counters().decode_rejects, 4u);
  // Their well-formed twins decode.
  send(wire::kSyncDigestKind, "<digest><v o='A' s='5' f='4'/></digest>");
  send(wire::kSyncDeltaKind, "<delta><v o='A' s='5' f='4'/></delta>");
  sim.Run();
  EXPECT_EQ(server.counters().decode_rejects, 4u);
}

// Builds a garage-sale network with sync enabled on every peer.
workload::GarageSaleNetwork BuildSyncedNetwork(net::Transport* sim,
                                               size_t sellers, uint64_t seed,
                                               double horizon) {
  workload::GarageSaleNetworkParams params;
  params.num_sellers = sellers;
  params.items_per_seller = 4;
  params.seed = seed;
  auto net = workload::BuildGarageSaleNetwork(sim, params);
  std::vector<Peer*> all{net.client, net.top_meta};
  all.insert(all.end(), net.index_servers.begin(), net.index_servers.end());
  all.insert(all.end(), net.sellers.begin(), net.sellers.end());
  for (Peer* p : all) {
    p->EnableSync(FastSync(100 + p->id(), horizon));
  }
  return net;
}

TEST(SyncAgentTest, QueryCompletesWhileResolverFailsAndRecovers) {
  net::Simulator sim;
  auto net = BuildSyncedNetwork(&sim, 10, 91, /*horizon=*/180);
  sim.Run(90);  // let gossip spread the catalogs
  // The client's only bootstrap — its resolver for everything — dies.
  sim.Fail(net.top_meta->id());
  QueryOutcome outcome;
  bool done = false;
  const auto area = *ns::InterestArea::Parse("(USA.OR,*)");
  net.client->SubmitQuery(workload::MakeAreaQueryPlan(area),
                          [&](const QueryOutcome& o) {
                            outcome = o;
                            done = true;
                          });
  sim.Run(100);
  // Without sync this query dead-ends at the failed bootstrap (see
  // RobustnessTest.FailedMetaServerStrandsQueryWithoutCrash); the
  // gossiped catalog routes around it.
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.items.size(), workload::GarageSaleGenerator::CountInArea(
                                      net.all_items, area));
  // The resolver recovers mid-run and catches back up with gossip.
  sim.Recover(net.top_meta->id());
  net.top_meta->RejoinNetwork();
  sim.Run();
  EXPECT_EQ(net.top_meta->sync()->versioned().vector(),
            net.client->sync()->versioned().vector());
}

TEST(ChurnScenarioTest, ConvergesAndStaysDeterministic) {
  auto run_once = [](uint64_t seed) {
    net::Simulator sim;
    workload::GarageSaleNetworkParams params;
    params.num_sellers = 10;
    params.items_per_seller = 3;
    params.seed = seed;
    auto net = workload::BuildGarageSaleNetwork(&sim, params);
    workload::ChurnParams churn;
    churn.seed = seed;
    churn.duration_seconds = 80;
    churn.event_interval_seconds = 8;
    churn.downtime_seconds = 20;
    churn.query_interval_seconds = 20;
    churn.convergence_tail_seconds = 80;
    churn.sync.gossip_interval_seconds = 4;
    churn.sync.refresh_interval_seconds = 12;
    churn.sync.entry_ttl_seconds = 40;
    workload::ChurnScenario scenario(&sim, &net, churn);
    scenario.EnableSyncEverywhere();
    auto stats = scenario.Run();
    struct Snapshot {
      workload::ChurnStats stats;
      bool converged;
      std::string fingerprint;
      uint64_t messages, bytes;
    } snap;
    snap.stats = stats;
    snap.converged = scenario.VectorsConverged();
    snap.fingerprint = scenario.VectorFingerprint();
    snap.messages = sim.stats().messages;
    snap.bytes = sim.stats().bytes;
    return snap;
  };
  auto a = run_once(5);
  EXPECT_GT(a.stats.fails + a.stats.departs + a.stats.joins, 0u);
  EXPECT_GT(a.stats.queries_submitted, 0u);
  EXPECT_TRUE(a.converged);
  EXPECT_FALSE(a.fingerprint.empty());
  // Bit-reproducible: the same seed gives the identical trace.
  auto b = run_once(5);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.stats.fails, b.stats.fails);
  EXPECT_EQ(a.stats.joins, b.stats.joins);
  EXPECT_EQ(a.stats.queries_complete, b.stats.queries_complete);
}

// Every joiner publishes under a seller name, and image refs, that no
// other seller of the run holds.
TEST(ChurnScenarioTest, JoinersGetFreshSellerNames) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.items_per_seller = 3;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);
  workload::ChurnParams churn;
  churn.duration_seconds = 80;
  churn.p_fail = 0;
  churn.p_depart = 0;
  churn.p_join = 1;
  churn.convergence_tail_seconds = 10;
  workload::ChurnScenario scenario(&sim, &net, churn);
  scenario.EnableSyncEverywhere();
  ASSERT_GT(scenario.Run().joins, 1u);
  // Which seller each name and image ref appears under.
  std::map<std::string, std::set<std::string>> holders;
  for (const auto& seller : scenario.sellers_log()) {
    for (const algebra::Item& item : seller.items) {
      holders[item->ChildText("seller")].insert(seller.address);
      holders[item->ChildText("image")].insert(seller.address);
    }
  }
  for (const auto& [value, addresses] : holders) {
    EXPECT_EQ(addresses.size(), 1u) << value;
  }
  EXPECT_EQ(scenario.sellers_log().size(),
            params.num_sellers + scenario.stats().joins);
}

}  // namespace
}  // namespace mqp
