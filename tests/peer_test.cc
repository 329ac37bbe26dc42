// Peer-level unit tests: registration payloads, the pull process (§3.3),
// plan policies on the wire, counters, and verification utilities.
#include <gtest/gtest.h>

#include "net/simulator.h"
#include "peer/peer.h"
#include "peer/verification.h"
#include "workload/cd_market.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"
#include "xml/token_writer.h"

namespace mqp::peer {
namespace {

using algebra::Plan;
using algebra::PlanNode;

algebra::ItemSet SomeItems(size_t n, uint64_t seed) {
  workload::GarageSaleGenerator gen(seed);
  auto sellers = gen.MakeSellers(1);
  return gen.MakeItems(sellers[0], n);
}

// The bounded set behind duplicate-result, late top-k reply and cancel
// suppression: the oldest insertion leaves first, and re-inserting a
// held id neither reports it new nor refreshes its age.
TEST(RecentIdsTest, EvictsOldestAndReinsertDoesNotRefresh) {
  RecentIds ids(3);
  EXPECT_TRUE(ids.Insert("a"));
  EXPECT_TRUE(ids.Insert("b"));
  EXPECT_TRUE(ids.Insert("c"));
  EXPECT_FALSE(ids.Insert("a"));  // held: not new, not refreshed
  EXPECT_TRUE(ids.Insert("d"));   // evicts "a", the oldest insertion
  EXPECT_FALSE(ids.Contains("a"));
  EXPECT_TRUE(ids.Contains("b"));
  EXPECT_TRUE(ids.Contains("c"));
  EXPECT_TRUE(ids.Contains("d"));
  EXPECT_TRUE(ids.Insert("e"));  // evicts "b"
  EXPECT_FALSE(ids.Contains("b"));
  EXPECT_TRUE(ids.Insert("a"));  // evicted ids are new again; evicts "c"
  EXPECT_FALSE(ids.Contains("c"));
  EXPECT_TRUE(ids.Contains("d"));
  EXPECT_TRUE(ids.Contains("e"));
  EXPECT_TRUE(ids.Contains("a"));
}

TEST(PeerTest, AddressAndNameDefaults) {
  net::Simulator sim;
  Peer a(&sim, PeerOptions{});
  Peer b(&sim, PeerOptions{});
  EXPECT_NE(a.address(), b.address());
  EXPECT_EQ(a.options().name, "peer-0");
  EXPECT_EQ(b.options().name, "peer-1");
}

TEST(PeerTest, PublishCollectionIsLocallyResolvable) {
  net::Simulator sim;
  PeerOptions o;
  o.roles.base = true;
  Peer p(&sim, o);
  auto area = ns::MakeArea({"USA/OR/Portland", "Music/CDs"});
  p.PublishCollection("c0", area, SomeItems(5, 1));
  auto binding = p.catalog().Resolve(ns::AreaToUrn(area).ToString());
  ASSERT_TRUE(binding.ok());
  ASSERT_FALSE(binding->empty());
  EXPECT_EQ(binding->alternatives[0].sources[0].server, p.address());
}

TEST(PeerTest, RegisterPayloadListsCollectionsNamedAndStatements) {
  net::Simulator sim;
  PeerOptions o;
  o.name = "s";
  o.roles.base = true;
  Peer p(&sim, o);
  p.PublishCollection("c0", ns::MakeArea({"USA/OR", "Music"}),
                      SomeItems(2, 2));
  p.PublishNamed("urn:X:Y", "c1", SomeItems(1, 3));
  auto st = catalog::IntensionalStatement::Parse(
      "base[(USA.OR,Music)]@A = base[(USA.OR,Music)]@B");
  p.AddOwnStatement(*st);

  // Register against an index server and inspect what it learned.
  PeerOptions io;
  io.name = "idx";
  io.roles.index = true;
  Peer idx(&sim, io);
  p.AddBootstrap(idx.address());
  p.JoinNetwork();
  sim.Run();
  EXPECT_EQ(idx.counters().registrations_received, 1u);
  // Two entries: collection c0 and the named collection's holder appears
  // via <named>, stored as a mapping.
  bool has_collection = false;
  for (const auto& e : idx.catalog().entries()) {
    if (e.server == p.address() && !e.xpath.empty()) has_collection = true;
  }
  EXPECT_TRUE(has_collection);
  auto named = idx.catalog().Resolve("urn:X:Y");
  ASSERT_TRUE(named.ok());
  EXPECT_FALSE(named->empty());
  EXPECT_EQ(idx.catalog().statements().size(), 1u);
}

// A registration's delay is range-checked like every other wire
// integer: an entry whose delay is not an int rejects the whole body,
// counted once in decode_rejects, instead of being stored truncated or
// as 0.
TEST(PeerTest, RegisterDelayThatIsNotAnIntRejectsTheBody) {
  net::Simulator sim;
  PeerOptions io;
  io.name = "idx";
  io.roles.index = true;
  Peer idx(&sim, io);
  PeerOptions so;
  so.name = "s";
  Peer sender(&sim, so);
  for (const auto& [xpath, delay] :
       {std::pair<const char*, const char*>{"/too-big", "4294967297"},
        {"/not-a-number", "abc"},
        {"/good", "15"}}) {
    std::string body;
    xml::TokenWriter w(&body);
    w.Start("register");
    w.Attr("server", sender.address());
    w.Attr("name", "s");
    w.Start("entry");
    w.Attr("area", "(USA.OR,Music)");
    w.Attr("xpath", xpath);
    w.Attr("delay", delay);
    w.End();
    w.End();
    wire::Send(&sim, sender.id(), idx.id(),
               {wire::kRegisterKind, "", 0, net::MakePayload(body)});
  }
  sim.Run();
  EXPECT_EQ(idx.counters().registrations_received, 3u);
  EXPECT_EQ(idx.counters().decode_rejects, 2u);
  std::vector<catalog::IndexEntry> stored;
  for (const auto& e : idx.catalog().entries()) {
    if (e.server == sender.address()) stored.push_back(e);
  }
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].xpath, "/good");
  EXPECT_EQ(stored[0].delay_minutes, 15);
}

// A registration's ttl is the sender's forwarding budget: it is read
// like every other wire integer (a malformed ttl rejects the body,
// counted once in decode_rejects) and capped at the budget JoinNetwork
// sends, so two authoritative index servers bootstrapped to each other
// forward one registration at most twice, whatever ttl it claims.
TEST(PeerTest, RegisterTtlIsCheckedAndCapped) {
  net::Simulator sim;
  PeerOptions io;
  io.roles.index = true;
  io.roles.authoritative = true;
  io.name = "a";
  Peer a(&sim, io);
  io.name = "b";
  Peer b(&sim, io);
  a.AddBootstrap(b.address());
  b.AddBootstrap(a.address());
  PeerOptions so;
  so.name = "s";
  Peer sender(&sim, so);
  auto send = [&](const char* ttl) {
    std::string body;
    xml::TokenWriter w(&body);
    w.Start("register");
    w.Attr("server", sender.address());
    w.Attr("name", "s");
    w.Attr("ttl", ttl);
    w.Start("entry");
    w.Attr("level", "index");
    w.Attr("area", "(USA.OR,Music)");
    w.End();
    w.End();
    wire::Send(&sim, sender.id(), a.id(),
               {wire::kRegisterKind, "", 0, net::MakePayload(body)});
    sim.Run();
  };
  auto stored_at_a = [&] {
    size_t n = 0;
    for (const auto& e : a.catalog().entries()) {
      if (e.server == sender.address()) ++n;
    }
    return n;
  };
  send("abc");
  EXPECT_EQ(a.counters().decode_rejects, 1u);
  EXPECT_EQ(stored_at_a(), 0u);
  EXPECT_EQ(b.counters().registrations_received, 0u);
  send("1000");
  const uint64_t forwards = a.counters().registrations_received +
                            b.counters().registrations_received - 2;
  EXPECT_LE(forwards, 2u);
  EXPECT_EQ(stored_at_a(), 1u);
  EXPECT_EQ(b.counters().registrations_received, 1u);
}

TEST(PeerTest, RegistrationIgnoredByNonIndexPeers) {
  net::Simulator sim;
  PeerOptions o;
  o.roles.base = true;
  Peer base_only(&sim, o);
  Peer sender(&sim, o);
  sender.AddBootstrap(base_only.address());
  sender.PublishCollection("c", ns::MakeArea({"USA", "Music"}),
                           SomeItems(1, 4));
  sender.JoinNetwork();
  sim.Run();
  EXPECT_EQ(base_only.counters().registrations_received, 1u);
  EXPECT_TRUE(base_only.catalog().entries().size() <= 1);  // only its own
}

TEST(PeerTest, PullProcessCreatesReplicaAndStatement) {
  net::Simulator sim;
  PeerOptions so;
  so.name = "src";
  so.roles.base = true;
  Peer source(&sim, so);
  auto area = ns::MakeArea({"USA/OR/Portland", "Books/Fiction"});
  source.PublishCollection("c0", area, SomeItems(7, 5));

  PeerOptions io;
  io.name = "idx";
  io.roles.index = true;
  io.roles.authoritative = true;
  io.interest = ns::MakeArea({"USA/OR", "*"});
  Peer idx(&sim, io);
  source.AddBootstrap(idx.address());
  source.JoinNetwork();
  sim.Run();

  ASSERT_EQ(idx.replica_count(), 0u);
  idx.PullIndexedData(/*delay_minutes=*/15);
  sim.Run();
  EXPECT_EQ(idx.replica_count(), 1u);
  auto held = idx.store().Fetch("", "");
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_EQ(held->size(), 7u);
  // The replica is catalogued with the delay and the containment
  // statement was asserted.
  bool replica_entry = false;
  for (const auto& e : idx.catalog().entries()) {
    if (e.server == idx.address() && e.delay_minutes == 15) {
      replica_entry = true;
    }
  }
  EXPECT_TRUE(replica_entry);
  ASSERT_EQ(idx.catalog().statements().size(), 1u);
  const auto& st = idx.catalog().statements()[0];
  EXPECT_EQ(st.relation, catalog::IntensionRelation::kContains);
  EXPECT_EQ(st.lhs.server, idx.address());
  EXPECT_EQ(st.rhs[0].server, source.address());
  EXPECT_EQ(st.rhs[0].delay_minutes, 15);
}

TEST(PeerTest, PulledReplicaAnswersQueriesLocally) {
  net::Simulator sim;
  PeerOptions so;
  so.name = "src";
  so.roles.base = true;
  Peer source(&sim, so);
  auto area = ns::MakeArea({"USA/WA/Seattle", "Clothing/Shoes"});
  source.PublishCollection("c0", area, SomeItems(6, 6));

  PeerOptions io;
  io.name = "idx";
  io.roles.index = true;
  io.roles.authoritative = true;
  io.interest = ns::MakeArea({"USA/WA", "*"});
  Peer idx(&sim, io);
  source.AddBootstrap(idx.address());
  source.JoinNetwork();
  sim.Run();
  idx.PullIndexedData(30);
  sim.Run();
  // Kill the source: the replica must still answer (stale but available —
  // §4.2 "R may be unavailable at some point, and we can use S for a
  // partial answer", mirrored).
  sim.Fail(source.id());

  PeerOptions co;
  co.name = "client";
  Peer client(&sim, co);
  client.AddBootstrap(idx.address());
  QueryOutcome outcome;
  bool done = false;
  client.SubmitQuery(
      workload::MakeAreaQueryPlan(area),
      [&](const QueryOutcome& o) {
        outcome = o;
        done = true;
      });
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.items.size(), 6u);
  // The staleness bound of the replica shows in the provenance.
  EXPECT_EQ(outcome.provenance.MaxStalenessMinutes(), 30);
}

TEST(PeerTest, PlanPolicyRoundTripsOnTheWire) {
  Plan plan(PlanNode::Display("t:1", PlanNode::UrnRef("urn:a:b")));
  plan.policy().route_allow = {"10.0.0.1:9020", "10.0.0.2:9020"};
  plan.policy().bind_after = {{"urn:a:b", "urn:c:d"}};
  plan.policy().time_budget_seconds = 30;
  plan.policy().preference = algebra::AnswerPreference::kCurrent;
  plan.set_query_id("q-77");
  plan.set_submitted_at(12.5);
  auto back = algebra::ParsePlan(algebra::SerializePlan(plan));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->policy(), plan.policy());
  EXPECT_EQ(back->query_id(), "q-77");
  EXPECT_DOUBLE_EQ(back->submitted_at(), 12.5);
}

TEST(PeerTest, CountersTrackWork) {
  net::Simulator sim;
  workload::CdMarketGenerator gen(9);
  auto titles = gen.MakeTitles(10);
  PeerOptions so;
  so.name = "seller";
  so.roles.base = true;
  Peer seller(&sim, so);
  seller.PublishNamed("urn:S:CDs", "c", gen.MakeSellerCds(titles, "s", 10));
  PeerOptions co;
  co.name = "client";
  Peer client(&sim, co);
  client.catalog().AddNamedReferral("urn:S:CDs", seller.address());

  bool done = false;
  client.SubmitQuery(
      Plan(PlanNode::Display(
          "", PlanNode::Select(algebra::FieldLess("price", "100"),
                               PlanNode::UrnRef("urn:S:CDs")))),
      [&](const QueryOutcome&) { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(client.counters().urns_bound, 1u);     // bound the referral
  EXPECT_EQ(client.counters().plans_forwarded, 1u);
  EXPECT_EQ(seller.counters().plans_received, 1u);
  EXPECT_EQ(seller.counters().urns_bound, 1u);     // referral → own URL
  EXPECT_EQ(seller.counters().subplans_evaluated, 1u);
  EXPECT_EQ(seller.counters().results_delivered, 1u);
}

TEST(PeerTest, MaxHopsBoundsRouting) {
  net::Simulator sim;
  // Two peers that know only each other; an unresolvable URN ping-pongs
  // until max_hops cuts it off.
  PeerOptions o1;
  o1.name = "a";
  o1.max_hops = 6;
  Peer a(&sim, o1);
  PeerOptions o2;
  o2.name = "b";
  o2.max_hops = 6;
  Peer b(&sim, o2);
  a.AddBootstrap(b.address());
  b.AddBootstrap(a.address());

  QueryOutcome outcome;
  bool done = false;
  a.SubmitQuery(Plan(PlanNode::Display(
                    "", PlanNode::UrnRef("urn:Nowhere:ToBeFound"))),
                [&](const QueryOutcome& o) {
                  outcome = o;
                  done = true;
                });
  sim.Run();
  ASSERT_TRUE(done);  // came back as a partial answer, not an infinite loop
  EXPECT_FALSE(outcome.complete);
  EXPECT_LE(outcome.provenance.size(), 8u);
}

TEST(PeerTest, DifferenceSplitSubtractsEnRoute) {
  // E − (A ∪ B) with A local to the first peer: the difference with A is
  // applied before the plan travels to B's host (Example 3's rewrite).
  net::Simulator sim;
  workload::CdMarketGenerator gen(17);
  auto titles = gen.MakeTitles(6);
  auto everything = gen.MakeSellerCds(titles, "x", 12);
  algebra::ItemSet a_items(everything.begin(), everything.begin() + 4);
  algebra::ItemSet b_items(everything.begin() + 4, everything.begin() + 7);

  PeerOptions po;
  po.roles.base = true;
  Peer pa(&sim, [&] {
    auto o = po;
    o.name = "pa";
    return o;
  }());
  Peer pb(&sim, [&] {
    auto o = po;
    o.name = "pb";
    return o;
  }());
  pa.PublishNamed("urn:A:data", "a", a_items);
  pb.PublishNamed("urn:B:data", "b", b_items);
  pa.catalog().AddNamedReferral("urn:B:data", pb.address());

  Plan plan(PlanNode::Display(
      "", PlanNode::Difference(
              PlanNode::XmlData(everything),
              PlanNode::Union({PlanNode::UrnRef("urn:A:data"),
                               PlanNode::UrnRef("urn:B:data")}))));
  QueryOutcome outcome;
  bool done = false;
  pa.SubmitQuery(std::move(plan), [&](const QueryOutcome& o) {
    outcome = o;
    done = true;
  });
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.items.size(), 12u - 4u - 3u);
}

TEST(PeerTest, HistogramAnnotationsTravelWithDeferredPlans) {
  // A peer configured with histogram_fields attaches distributions to its
  // local collections (§5.1); a downstream peer's cost model can then see
  // them. We check the annotation appears on the wire.
  net::Simulator sim;
  PeerOptions so;
  so.name = "seller";
  so.roles.base = true;
  so.histogram_fields = {"price"};
  Peer seller(&sim, so);
  workload::CdMarketGenerator gen(33);
  auto titles = gen.MakeTitles(10);
  seller.PublishNamed("urn:S:CDs", "c", gen.MakeSellerCds(titles, "s", 50));

  // Capture the plan after the seller annotates + evaluates. Easiest
  // observation point: resolve locally and inspect.
  algebra::Plan plan(PlanNode::Display(
      "10.0.0.9:9020", PlanNode::UrnRef("urn:S:CDs")));
  // Simulate the annotate step by submitting a query that the seller
  // cannot finish (remote target) — the result message carries the data;
  // instead probe AnnotateLocalUrls indirectly via the catalog binding.
  auto binding = seller.catalog().Resolve("urn:S:CDs");
  ASSERT_TRUE(binding.ok());
  auto fragment = catalog::BindingToPlan(*binding);
  algebra::Plan probe(fragment);
  // Build histogram as the peer would.
  auto items = seller.store().Fetch(seller.address(), "/data[id=c]");
  ASSERT_TRUE(items.ok());
  auto h = algebra::FieldHistogram::Build(*items, "price");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->total, 50u);
  // And the cost model consumes it.
  optimizer::CostModel cost;
  auto urn = PlanNode::UrnRef("urn:S:CDs");
  urn->annotations().cardinality = 50;
  urn->annotations().histograms.push_back(*h);
  auto cheap = PlanNode::Select(algebra::FieldLess("price", "5"), urn);
  // Prices are uniform in [4, 26): under ~5% fall below 5 — far from the
  // fixed 33% heuristic.
  EXPECT_LT(cost.Estimate(*cheap).rows, 10);
  (void)plan;
}

TEST(VerificationTest, CleanQueryRaisesNoSuspicion) {
  net::Simulator sim;
  workload::CdMarketGenerator gen(19);
  auto titles = gen.MakeTitles(5);
  PeerOptions so;
  so.name = "honest";
  so.roles.base = true;
  Peer honest(&sim, so);
  honest.PublishNamed("urn:H:CDs", "c", gen.MakeSellerCds(titles, "h", 5));
  PeerOptions co;
  co.name = "client";
  co.retain_original = true;
  Peer client(&sim, co);
  client.catalog().AddNamedReferral("urn:H:CDs", honest.address());

  QueryOutcome outcome;
  bool done = false;
  client.SubmitQuery(
      Plan(PlanNode::Display("", PlanNode::UrnRef("urn:H:CDs"))),
      [&](const QueryOutcome& o) {
        outcome = o;
        done = true;
      });
  sim.Run();
  ASSERT_TRUE(done);
  auto sus = FindSuspiciousBindings(outcome.final_plan, "urn:H:CDs",
                                    honest.address());
  EXPECT_TRUE(sus.empty());
}

TEST(VerificationTest, UrnAbsentFromOriginalNotReported) {
  Plan plan(PlanNode::Display("", PlanNode::XmlData({})));
  plan.set_original(PlanNode::UrnRef("urn:other:thing"));
  auto sus = FindSuspiciousBindings(plan, "urn:not:there", "srv");
  EXPECT_TRUE(sus.empty());
}

TEST(VerificationTest, VerificationQueryShape) {
  auto plan = MakeVerificationQuery("urn:T:data", "client:1");
  EXPECT_EQ(plan.root()->type(), algebra::OpType::kDisplay);
  EXPECT_EQ(plan.root()->child(0)->type(), algebra::OpType::kAggregate);
  EXPECT_EQ(plan.root()->child(0)->child(0)->urn(), "urn:T:data");
}

}  // namespace
}  // namespace mqp::peer
