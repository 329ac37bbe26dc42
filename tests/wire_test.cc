// Wire layer: envelope framing, shared payloads, the plan serialization
// cache, and the no-reserialize guarantee for pure routing hops.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "algebra/plan_xml.h"
#include "net/simulator.h"
#include "peer/peer.h"
#include "wire/envelope.h"
#include "wire/plan_codec.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using algebra::Plan;
using algebra::PlanNode;

algebra::ItemSet SomeItems(size_t n, uint64_t seed) {
  workload::GarageSaleGenerator gen(seed);
  auto sellers = gen.MakeSellers(1);
  return gen.MakeItems(sellers[0], n);
}

// --- envelope framing -----------------------------------------------------------

TEST(WireEnvelopeTest, RoundTripsThroughMessageSharingThePayload) {
  wire::Envelope env;
  env.kind = "mqp";
  env.query_id = "client-q7";
  env.hops = 12;
  env.payload = net::MakePayload("<mqp><plan><data/></plan></mqp>");

  net::Message msg = env.ToMessage(3, 9);
  EXPECT_EQ(msg.kind, "mqp");
  EXPECT_EQ(msg.payload.get(), env.payload.get());  // shared, not copied

  auto back = wire::DecodeEnvelope(msg);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->kind, env.kind);
  EXPECT_EQ(back->query_id, env.query_id);
  EXPECT_EQ(back->hops, env.hops);
  EXPECT_EQ(back->payload.get(), env.payload.get());
}

TEST(WireEnvelopeTest, EmptyQueryIdAndPayloadRoundTrip) {
  wire::Envelope env;
  env.kind = "register";
  auto back = wire::DecodeEnvelope(env.ToMessage(0, 1));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, "register");
  EXPECT_EQ(back->query_id, "");
  EXPECT_EQ(back->hops, 0u);
  EXPECT_EQ(back->body(), "");
}

TEST(WireEnvelopeTest, RawMessageDecodesAsLegacyEnvelope) {
  net::Message raw(0, 1, "mqp", "<not-even-xml");
  auto env = wire::DecodeEnvelope(raw);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->kind, "mqp");
  EXPECT_EQ(env->query_id, "");
  EXPECT_EQ(env->hops, 0u);
  EXPECT_EQ(env->body(), "<not-even-xml");
}

TEST(WireEnvelopeTest, MalformedHeaderIsRejected) {
  net::Message msg(0, 1, "mqp", "body");
  msg.header = "bogus\n";
  EXPECT_FALSE(wire::DecodeEnvelope(msg).ok());
  msg.header = "w1|mqp|only-two-fields\n";
  EXPECT_FALSE(wire::DecodeEnvelope(msg).ok());
  msg.header = "w1|mqp|q|not-a-number\n";
  EXPECT_FALSE(wire::DecodeEnvelope(msg).ok());
  msg.header = "w1|mqp|q|-3\n";
  EXPECT_FALSE(wire::DecodeEnvelope(msg).ok());
  msg.header = "w1|mqp|q|4294967296\n";  // > UINT32_MAX: reject, not wrap
  EXPECT_FALSE(wire::DecodeEnvelope(msg).ok());
}

TEST(WireEnvelopeTest, QueryIdMayContainTheDelimiter) {
  // Query ids derive from user-settable peer names; "a|b-q1" must survive.
  wire::Envelope env;
  env.kind = "mqp";
  env.query_id = "a|b-q1";
  env.hops = 3;
  auto back = wire::DecodeEnvelope(env.ToMessage(0, 1));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->query_id, "a|b-q1");
  EXPECT_EQ(back->hops, 3u);
}

TEST(WireEnvelopeTest, SimulatorCountsHeaderInWireSize) {
  net::Simulator sim;
  class Sink : public net::PeerNode {
   public:
    void HandleMessage(const net::Message&) override {}
  } sink;
  const net::PeerId to = sim.Register(&sink);

  wire::Envelope env;
  env.kind = "fetch";
  env.query_id = "r1";
  env.payload = net::MakePayload("0123456789");
  wire::Send(&sim, net::kNoPeer, to, env);
  const size_t wire_size = env.EncodeHeader().size() + env.body().size();
  EXPECT_EQ(sim.stats().bytes, wire_size);
  EXPECT_GT(wire_size, env.body().size());  // header accounted
}

// --- plan serialization cache ---------------------------------------------------

Plan SamplePlan() {
  auto sel = PlanNode::Select(
      algebra::FieldLess("price", "100"),
      PlanNode::Union({PlanNode::XmlData(SomeItems(5, 21)),
                       PlanNode::UrnRef("urn:InterestArea:(USA.OR,*)")}));
  Plan plan(PlanNode::Display("10.0.0.1:9020", sel));
  plan.set_query_id("q-cache");
  return plan;
}

TEST(PlanCacheTest, SerializeOnceThenReuse) {
  Plan plan = SamplePlan();
  net::NetStats stats;
  auto first = wire::SerializePlanShared(plan, &stats);
  EXPECT_FALSE(first.reused);
  EXPECT_TRUE(plan.WireCacheValid());
  auto second = wire::SerializePlanShared(plan, &stats);
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(first.bytes.get(), second.bytes.get());
  EXPECT_EQ(stats.plan_serializations, 1u);
  EXPECT_EQ(stats.forwards_without_reserialize, 1u);
}

TEST(PlanCacheTest, ParseAttachesIncomingBufferAsCache) {
  Plan plan = SamplePlan();
  auto bytes = net::MakePayload(algebra::SerializePlan(plan));
  net::NetStats stats;
  auto parsed = wire::ParsePlanShared(bytes, &stats);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(stats.plan_parses, 1u);
  // Forwarding the freshly parsed plan reuses the very buffer it came in.
  auto out = wire::SerializePlanShared(*parsed, &stats);
  EXPECT_TRUE(out.reused);
  EXPECT_EQ(out.bytes.get(), bytes.get());
  EXPECT_EQ(stats.plan_serializations, 0u);
}

// Property-style: every mutation kind must invalidate the cache, and the
// re-serialized plan must parse back structurally equal.
TEST(PlanCacheTest, MutationsInvalidateAndRoundTrip) {
  using Mutation = std::function<void(Plan*)>;
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"morph-urn-to-data",
       [](Plan* p) {
         auto urns = p->root()->UrnLeaves();
         ASSERT_FALSE(urns.empty());
         const_cast<PlanNode*>(urns[0])->MorphToData(SomeItems(2, 22));
       }},
      {"annotate-node",
       [](Plan* p) {
         p->root()->child(0)->annotations().cardinality = 42;
       }},
      {"append-provenance",
       [](Plan* p) {
         p->provenance().Add({"10.0.0.9:9020", 1.0,
                              algebra::ProvenanceAction::kForwarded,
                              "relay", 0});
       }},
      {"replace-root",
       [](Plan* p) {
         p->set_root(PlanNode::Display(
             "10.0.0.1:9020", PlanNode::XmlData(SomeItems(1, 23))));
       }},
      {"edit-policy-in-place",
       [](Plan* p) {
         p->policy().route_allow = {"10.0.0.3:9020"};
         auto serialized = wire::SerializePlanShared(*p);  // re-cache
         ASSERT_TRUE(p->WireCacheValid());
         // Same vector length, different content: must still invalidate.
         p->policy().route_allow[0] = "10.0.0.4:9020";
       }},
  };
  for (const auto& [name, mutate] : mutations) {
    Plan plan = SamplePlan();
    auto before = wire::SerializePlanShared(plan);
    ASSERT_TRUE(plan.WireCacheValid()) << name;
    mutate(&plan);
    EXPECT_FALSE(plan.WireCacheValid()) << name;
    auto after = wire::SerializePlanShared(plan);
    EXPECT_FALSE(after.reused) << name;
    EXPECT_NE(after.bytes.get(), before.bytes.get()) << name;
    // mutate → serialize → parse → structural equality.
    auto back = algebra::ParsePlan(*after.bytes);
    ASSERT_TRUE(back.ok()) << name << ": " << back.status();
    ASSERT_NE(back->root(), nullptr) << name;
    EXPECT_TRUE(back->root()->Equals(*plan.root())) << name;
    EXPECT_EQ(back->provenance().size(), plan.provenance().size()) << name;
  }
}

// --- regression: pure routing hops must not re-serialize ------------------------

TEST(WireRoutingTest, ForwardedUnchangedPlanIsNotReserialized) {
  net::Simulator sim;
  const auto area = ns::MakeArea({"USA/OR/Portland", "Music/CDs"});

  // client → relay (knows nothing; pure router) → authority (binds and
  // evaluates). Provenance off: the plan must cross the relay untouched.
  peer::PeerOptions co;
  co.name = "client";
  co.record_provenance = false;
  co.cache_from_plans = false;
  peer::Peer client(&sim, co);

  peer::PeerOptions ro;
  ro.name = "relay";
  ro.record_provenance = false;
  ro.cache_from_plans = false;
  peer::Peer relay(&sim, ro);

  peer::PeerOptions ao;
  ao.name = "authority";
  ao.record_provenance = false;
  ao.cache_from_plans = false;
  ao.roles.base = true;
  ao.roles.index = true;
  ao.roles.authoritative = true;
  ao.interest = ns::MakeArea({"USA/OR", "*"});
  peer::Peer authority(&sim, ao);
  authority.PublishCollection("c0", area, SomeItems(4, 31));

  client.AddBootstrap(relay.address());
  relay.AddBootstrap(authority.address());

  peer::QueryOutcome outcome;
  bool done = false;
  client.SubmitQuery(workload::MakeAreaQueryPlan(area),
                     [&](const peer::QueryOutcome& o) {
                       outcome = o;
                       done = true;
                     });
  sim.Run();

  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.items.size(), 4u);

  // The relay routed the plan without serializing anything.
  EXPECT_EQ(relay.counters().plans_received, 1u);
  EXPECT_EQ(relay.counters().plans_forwarded, 1u);
  EXPECT_EQ(relay.counters().plan_serializations, 0u);
  EXPECT_EQ(relay.counters().forwards_without_reserialize, 1u);

  // Streaming codec: the pure routing hop (receive → decode → forward)
  // built zero xml::Nodes — the throwaway DOM is gone from the hot path.
  EXPECT_EQ(relay.counters().hop_dom_nodes_built, 0u);
  EXPECT_EQ(relay.counters().plan_parses, 1u);
  EXPECT_GT(relay.counters().plan_decode_ns, 0u);
  // The authority evaluates the bound sub-plan, yet builds zero nodes
  // too: the shared-item store hands the engine refs into its collections
  // and the result rides the plan as those same shared items (the
  // receiving client is who materializes them from the wire). Its engine
  // counters show the work happened.
  EXPECT_EQ(authority.counters().hop_dom_nodes_built, 0u);
  EXPECT_EQ(authority.counters().items_cloned, 0u);
  EXPECT_GT(authority.counters().subplans_evaluated, 0u);
  EXPECT_GT(authority.counters().engine_eval_ns, 0u);
  // No decode anywhere builds a node: the returning result's items cross
  // the wire as verbatim bytes and become real nodes only when the client
  // reads them.
  EXPECT_EQ(sim.stats().dom_nodes_built, 0u);
  EXPECT_GT(client.counters().hop_dom_nodes_built, 0u);
  EXPECT_GT(sim.stats().plan_decode_ns, 0u);

  // Global accounting: strictly fewer serializations than plan-carrying
  // messages (client's initial send + relay hop + returning result).
  const uint64_t plan_messages = sim.stats().messages_by_kind.at("mqp") +
                                 sim.stats().messages_by_kind.at("result");
  EXPECT_EQ(plan_messages, 3u);
  EXPECT_LT(sim.stats().plan_serializations, plan_messages);
  EXPECT_EQ(sim.stats().forwards_without_reserialize, 1u);
  EXPECT_EQ(sim.stats().plan_parses, 3u);
}

// A state-area walk: each seller evaluates its own collection and
// forwards the plan, which carries every earlier seller's result (the
// last seller evaluates the whole union and delivers it). A forwarding
// hop carrying two or more earlier results builds no xml::Node, and its
// outgoing plan holds the incoming item bytes verbatim.
TEST(WireRoutingTest, StateWalkForwardsCarriedItemsVerbatim) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 24;
  params.items_per_seller = 5;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);
  std::vector<net::Message> sent;
  sim.set_on_send([&](const net::Message& m) {
    if (m.kind == wire::kMqpKind) sent.push_back(m);
  });
  for (const char* state : {"USA/OR", "USA/WA", "USA/CA", "France"}) {
    bool complete = false;
    net.client->SubmitQuery(
        workload::MakeAreaQueryPlan(ns::MakeArea({state, "*"})),
        [&](const peer::QueryOutcome& o) { complete = o.complete; });
    sim.Run();
    EXPECT_TRUE(complete) << state;
  }
  size_t checked = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    const auto seller =
        std::find_if(net.sellers.begin(), net.sellers.end(),
                     [&](peer::Peer* p) { return p->id() == sent[i].to; });
    if (seller == net.sellers.end()) continue;
    auto env = wire::DecodeEnvelope(sent[i]);
    ASSERT_TRUE(env.ok());
    auto in = algebra::ParsePlan(env->payload);
    ASSERT_TRUE(in.ok()) << in.status();
    std::vector<std::string_view> carried;
    std::vector<const PlanNode*> stack = {in->root().get()};
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      if (!n->verbatim_items().empty()) carried.push_back(n->verbatim_items());
      for (const auto& c : n->children()) stack.push_back(c.get());
    }
    if (carried.size() < 2) continue;
    // The seller's own next plan message is its forward of this hop.
    const auto out = std::find_if(
        sent.begin() + static_cast<std::ptrdiff_t>(i) + 1, sent.end(),
        [&](const net::Message& m) { return m.from == sent[i].to; });
    if (out == sent.end()) continue;  // the walk's last seller
    for (std::string_view run : carried) {
      EXPECT_NE(out->payload->find(run), std::string::npos);
    }
    EXPECT_EQ((*seller)->counters().hop_dom_nodes_built, 0u);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// The walk's last seller reduces union(carried data, select(local)) and
// delivers the result. It folds the carried runs as bytes: the seller
// builds no xml::Node, and the result payload holds every carried run
// unchanged.
TEST(WireRoutingTest, StateWalkLastSellerFoldsCarriedItemsAsBytes) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 24;
  params.items_per_seller = 5;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);
  std::vector<net::Message> sent;
  sim.set_on_send([&](const net::Message& m) {
    if (m.kind == wire::kMqpKind || m.kind == wire::kResultKind) {
      sent.push_back(m);
    }
  });
  for (const char* state : {"USA/OR", "USA/WA", "USA/CA", "France"}) {
    bool complete = false;
    net.client->SubmitQuery(
        workload::MakeAreaQueryPlan(ns::MakeArea({state, "*"})),
        [&](const peer::QueryOutcome& o) { complete = o.complete; });
    sim.Run();
    EXPECT_TRUE(complete) << state;
  }
  size_t checked = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    if (sent[i].kind != wire::kMqpKind) continue;
    const auto seller =
        std::find_if(net.sellers.begin(), net.sellers.end(),
                     [&](peer::Peer* p) { return p->id() == sent[i].to; });
    if (seller == net.sellers.end()) continue;
    auto env = wire::DecodeEnvelope(sent[i]);
    ASSERT_TRUE(env.ok());
    auto in = algebra::ParsePlan(env->payload);
    ASSERT_TRUE(in.ok()) << in.status();
    std::vector<std::string_view> carried;
    std::vector<const PlanNode*> stack = {in->root().get()};
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      if (!n->verbatim_items().empty()) carried.push_back(n->verbatim_items());
      for (const auto& c : n->children()) stack.push_back(c.get());
    }
    if (carried.size() < 2) continue;
    const auto out = std::find_if(
        sent.begin() + static_cast<std::ptrdiff_t>(i) + 1, sent.end(),
        [&](const net::Message& m) { return m.from == sent[i].to; });
    ASSERT_NE(out, sent.end());
    if (out->kind != wire::kResultKind) continue;  // a forwarding hop
    for (std::string_view run : carried) {
      EXPECT_NE(out->payload->find(run), std::string::npos);
    }
    EXPECT_EQ((*seller)->counters().hop_dom_nodes_built, 0u);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace mqp
