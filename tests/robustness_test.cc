// Failure injection and concurrency: the system must degrade gracefully,
// never crash, and keep independent queries correlated correctly.
#include <gtest/gtest.h>

#include "net/simulator.h"
#include "common/strings.h"
#include "peer/peer.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using peer::Peer;
using peer::QueryOutcome;
using workload::BuildGarageSaleNetwork;
using workload::GarageSaleGenerator;
using workload::GarageSaleNetworkParams;
using workload::MakeAreaQueryPlan;

TEST(RobustnessTest, ManyConcurrentQueriesCorrelateById) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 14;
  params.items_per_seller = 6;
  params.seed = 77;
  auto net = BuildGarageSaleNetwork(&sim, params);

  // Submit one query per state before running the simulator at all;
  // results must map back to the right query.
  const char* areas[] = {"(USA.OR,*)", "(USA.WA,*)", "(USA.CA,*)",
                         "(France,*)", "(USA,Furniture)"};
  std::map<std::string, QueryOutcome> outcomes;
  std::map<std::string, std::string> area_of_query;
  for (const char* a : areas) {
    auto area = *ns::InterestArea::Parse(a);
    std::string qid = net.client->SubmitQuery(
        MakeAreaQueryPlan(area), [&outcomes](const QueryOutcome& o) {
          outcomes[o.query_id] = o;
        });
    area_of_query[qid] = a;
  }
  sim.Run();
  ASSERT_EQ(outcomes.size(), 5u);
  for (const auto& [qid, outcome] : outcomes) {
    ASSERT_TRUE(outcome.complete) << qid;
    auto area = *ns::InterestArea::Parse(area_of_query[qid]);
    EXPECT_EQ(outcome.items.size(),
              GarageSaleGenerator::CountInArea(net.all_items, area))
        << qid << " " << area_of_query[qid];
    // Every returned item really lies in the queried area.
    for (const auto& item : outcome.items) {
      EXPECT_TRUE(GarageSaleGenerator::ItemInArea(*item, area));
    }
  }
}

TEST(RobustnessTest, FailedMetaServerStrandsQueryWithoutCrash) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.seed = 78;
  auto net = BuildGarageSaleNetwork(&sim, params);
  sim.Fail(net.top_meta->id());
  bool done = false;
  QueryOutcome first;
  net.client->SubmitQuery(
      MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
      [&](const QueryOutcome& o) {
        first = o;
        done = true;
      });
  sim.Run();
  // The sole bootstrap is down, so no progress is possible — but the
  // reliability layer (DESIGN.md §9) still finishes the query: retries
  // exhaust, the outcome reports timed_out with complete=false, and the
  // pending entry is reaped rather than leaked.
  ASSERT_TRUE(done);
  EXPECT_FALSE(first.complete);
  EXPECT_TRUE(first.timed_out);
  EXPECT_GE(first.attempts, 2u);
  EXPECT_EQ(net.client->pending_queries(), 0u);
  // After recovery the same client succeeds (the suspicion list never
  // vetoes a sole candidate, so the recovered bootstrap is usable at
  // once).
  done = false;
  sim.Recover(net.top_meta->id());
  QueryOutcome outcome;
  net.client->SubmitQuery(
      MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
      [&](const QueryOutcome& o) {
        outcome = o;
        done = true;
      });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
}

TEST(RobustnessTest, FailureAtEveryHopNeverCrashes) {
  // Deterministically fail each peer id in turn while the same query runs:
  // the system must never crash and must either answer or stay silent.
  for (net::PeerId victim = 0; victim < 12; ++victim) {
    net::Simulator sim;
    GarageSaleNetworkParams params;
    params.num_sellers = 6;
    params.items_per_seller = 3;
    params.seed = 79;
    auto net = BuildGarageSaleNetwork(&sim, params);
    if (victim >= sim.size()) break;
    if (victim == net.client->id()) continue;
    sim.Fail(victim);
    bool done = false;
    QueryOutcome outcome;
    net.client->SubmitQuery(
        MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
        [&](const QueryOutcome& o) {
          outcome = o;
          done = true;
        });
    sim.Run();
    if (done && outcome.complete) {
      // If an answer arrived as complete, it must be internally
      // consistent: only USA items.
      for (const auto& item : outcome.items) {
        EXPECT_TRUE(StartsWith(item->ChildText("location"), "USA"));
      }
    }
  }
}

TEST(RobustnessTest, MalformedMessagesIgnored) {
  net::Simulator sim;
  peer::PeerOptions o;
  o.roles.base = true;
  o.roles.index = true;
  Peer p(&sim, o);
  for (const char* kind :
       {wire::kMqpKind, wire::kResultKind, wire::kRegisterKind,
        wire::kCategoryQueryKind, wire::kFetchKind, wire::kSubqueryKind,
        wire::kFetchReplyKind}) {
    sim.Send({net::kNoPeer, p.id(), kind, "<not-even-xml", 0});
    sim.Send({net::kNoPeer, p.id(), kind, "<wrong-root/>", 0});
    sim.Send({net::kNoPeer, p.id(), kind, "", 0});
  }
  sim.Run();  // no crash
  EXPECT_EQ(p.counters().plans_forwarded, 0u);
}

TEST(RobustnessTest, RepeatedQueriesStayDeterministic) {
  // The same seed must give byte-identical traffic counts across runs.
  auto run_once = [] {
    net::Simulator sim;
    GarageSaleNetworkParams params;
    params.num_sellers = 8;
    params.seed = 81;
    auto net = BuildGarageSaleNetwork(&sim, params);
    bool done = false;
    net.client->SubmitQuery(
        MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA.OR,*)")),
        [&](const QueryOutcome&) { done = true; });
    sim.Run();
    EXPECT_TRUE(done);
    return std::make_pair(sim.stats().messages, sim.stats().bytes);
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(RobustnessTest, DeepPlanSurvivesWire) {
  // A deeply nested plan round-trips and evaluates without stack issues.
  using algebra::PlanNode;
  algebra::ItemSet items;
  auto e = xml::Node::Element("i");
  e->AddElementWithText("v", "1");
  items.push_back(algebra::Item(e.release()));
  algebra::PlanNodePtr node = PlanNode::XmlData(items);
  for (int i = 0; i < 200; ++i) {
    node = PlanNode::Select(algebra::FieldGreater("v", "0"), node);
  }
  algebra::Plan plan(node);
  auto back = algebra::ParsePlan(algebra::SerializePlan(plan));
  ASSERT_TRUE(back.ok());
  auto result = engine::Evaluate(*back->root());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

}  // namespace
}  // namespace mqp
