// Overload-protection tests (DESIGN.md §11): client-side admission
// control, priority-aware shedding, per-query evaluation budgets,
// cooperative cancellation — and the determinism sweep asserting that
// every shed/abort/cancel decision replays bit-identically per seed on
// the simulator and the threaded runtime.
//
// Seed counts default to a quick smoke sweep; CI's runtime job sets
// MQP_EQUIV_SEEDS=1000 for the full suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "engine/local_store.h"
#include "engine/operator.h"
#include "net/simulator.h"
#include "peer/peer.h"
#include "runtime/threaded_runtime.h"
#include "wire/envelope.h"
#include "workload/flash_crowd.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using algebra::ItemSet;
using algebra::Plan;
using algebra::PlanNode;

size_t EquivSeeds(size_t fallback) {
  if (const char* env = std::getenv("MQP_EQUIV_SEEDS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

ItemSet SomeItems(size_t n, uint64_t seed) {
  workload::GarageSaleGenerator gen(seed);
  auto sellers = gen.MakeSellers(1);
  return gen.MakeItems(sellers[0], n);
}

// --- per-query evaluation budgets ---------------------------------------------

// A row budget smaller than the collection aborts the scan mid-stream
// with kTimeout and counts exactly one budget abort per scope.
TEST(EvalBudget, RowBudgetAbortsLargeScan) {
  engine::internal::MutableStats() = engine::EngineStats{};
  engine::LocalStore store;
  ItemSet big = SomeItems(500, 11);
  const auto plan = PlanNode::XmlData(big);
  {
    const engine::ScopedEvalBudget budget(engine::EvalLimits{.max_rows = 64});
    auto r = engine::Evaluate(*plan, &store);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(engine::Stats().budget_aborts, 1u);
  // Without a budget the same scan sails through.
  auto r = engine::Evaluate(*plan, &store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 500u);
  EXPECT_EQ(engine::Stats().budget_aborts, 1u);
}

// Nested scopes: the innermost budget wins while it is active.
TEST(EvalBudget, InnermostScopeWins) {
  engine::internal::MutableStats() = engine::EngineStats{};
  engine::LocalStore store;
  ItemSet big = SomeItems(200, 12);
  const auto plan = PlanNode::XmlData(big);
  const engine::ScopedEvalBudget outer(
      engine::EvalLimits{.max_rows = 100000});
  {
    const engine::ScopedEvalBudget inner(engine::EvalLimits{.max_rows = 8});
    auto r = engine::Evaluate(*plan, &store);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  }
  auto r = engine::Evaluate(*plan, &store);
  EXPECT_TRUE(r.ok());  // back on the generous outer budget
}

/// A slow fleet (1s of virtual service per hop) with the given deadline
/// and overload template; returns the single query's outcome.
peer::QueryOutcome RunSlowWalkQuery(double deadline_seconds,
                                    double budget_rows_per_second,
                                    size_t items_per_seller,
                                    net::NetStats* stats_out = nullptr) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 8;
  params.items_per_seller = items_per_seller;
  params.seed = 21;
  params.client_template.reliability.enabled = true;
  params.client_template.reliability.query_deadline_seconds =
      deadline_seconds;
  params.client_template.reliability.max_retries = 0;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);

  peer::OverloadOptions ov;
  ov.service_rate_qps = 1;  // one virtual second per mqp hop
  ov.budget_rows_per_second = budget_rows_per_second;
  ov.min_budget_rows = 16;
  std::vector<peer::Peer*> all{net.client, net.top_meta};
  for (auto* p : net.index_servers) all.push_back(p);
  for (auto* p : net.sellers) all.push_back(p);
  for (auto* p : all) p->mutable_options().overload = ov;

  peer::QueryOutcome out;
  bool returned = false;
  const auto area = *ns::InterestArea::Parse("(USA,*)");
  net.client->SubmitQuery(workload::MakeAreaQueryPlan(area),
                          [&](const peer::QueryOutcome& o) {
                            out = o;
                            returned = true;
                          });
  sim.Run();
  EXPECT_TRUE(returned);
  if (stats_out != nullptr) *stats_out = sim.stats();
  EXPECT_EQ(net.client->pending_queries(), 0u);
  return out;
}

// Satellite regression: a deadline expiring mid-walk of a slow fleet
// still yields a *timely* partial — the callback fires at the deadline
// (not when the backlog would have drained) and carries the items the
// already-visited sellers answered.
TEST(EvalBudget, DeadlineMidWalkYieldsTimelyPartial) {
  // (USA,*) visits meta + index servers + all 8 sellers at 1s per hop —
  // a complete answer needs >10s of service; the deadline cuts it off
  // after a handful of sellers evaluated.
  const double deadline = 6.5;
  peer::QueryOutcome out = RunSlowWalkQuery(deadline,
                                            /*budget_rows_per_second=*/0,
                                            /*items_per_seller=*/4);
  EXPECT_TRUE(out.timed_out);
  EXPECT_FALSE(out.complete);
  EXPECT_FALSE(out.items.empty());  // degradation, not silence
  const double latency = out.completed_at - out.submitted_at;
  EXPECT_GE(latency, deadline - 0.5);
  EXPECT_LE(latency, deadline + 2.0);  // timely: deadline + one reap hop
}

// With a row budget scaled to the remaining deadline, a large collection
// aborts mid-evaluation (budget_aborts counted into NetStats) and the
// callback still fires on time.
TEST(EvalBudget, BudgetAbortsLargeCollectionMidEvaluation) {
  const double deadline = 6.5;
  net::NetStats stats;
  peer::QueryOutcome out = RunSlowWalkQuery(deadline,
                                            /*budget_rows_per_second=*/20,
                                            /*items_per_seller=*/300, &stats);
  EXPECT_TRUE(out.timed_out);
  EXPECT_GE(stats.budget_aborts, 1u);
  const double latency = out.completed_at - out.submitted_at;
  EXPECT_LE(latency, deadline + 2.0);
}

// --- client-side admission control --------------------------------------------

// Past the pending budget, a best-effort query is refused synchronously
// (outcome.shed, nothing on the wire) while a high-priority one rides
// the priority ceiling in.
TEST(Admission, ClientShedsBestEffortPastBudgetButAdmitsHighPriority) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 2;
  params.items_per_seller = 2;
  params.seed = 31;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);
  net.client->mutable_options().overload.max_pending_queries = 1;
  // No reliability machinery: forwarded queries pend until answered.
  net.client->mutable_options().reliability.enabled = false;
  // The first query parks in pending_ forever: its route dead-ends.
  sim.Fail(net.top_meta->id());

  const auto area = *ns::InterestArea::Parse("(USA,*)");
  size_t returned = 0;
  net.client->SubmitQuery(workload::MakeAreaQueryPlan(area),
                          [&](const peer::QueryOutcome&) { ++returned; });
  EXPECT_EQ(net.client->pending_queries(), 1u);

  bool second_shed = false;
  net.client->SubmitQuery(workload::MakeAreaQueryPlan(area),
                          [&](const peer::QueryOutcome& o) {
                            second_shed = o.shed;
                            ++returned;
                          });
  EXPECT_TRUE(second_shed);  // refused synchronously at submission
  EXPECT_EQ(net.client->counters().queries_shed, 1u);
  EXPECT_EQ(sim.stats().queries_shed, 1u);

  Plan hp = workload::MakeAreaQueryPlan(area);
  hp.policy().priority = 1;
  bool third_shed = false;
  net.client->SubmitQuery(std::move(hp), [&](const peer::QueryOutcome& o) {
    third_shed = o.shed;
    ++returned;
  });
  EXPECT_FALSE(third_shed);  // ceiling = 4x the best-effort budget
  EXPECT_EQ(net.client->pending_queries(), 2u);
  EXPECT_EQ(sim.stats().queries_shed, 1u);
  EXPECT_EQ(returned, 1u);  // only the shed callback has fired so far
}

// Ablated (enabled=false), the same pressure admits everything.
TEST(Admission, AblationDisablesClientShedding) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 2;
  params.items_per_seller = 2;
  params.seed = 31;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);
  net.client->mutable_options().overload.max_pending_queries = 1;
  net.client->mutable_options().overload.enabled = false;
  net.client->mutable_options().reliability.enabled = false;
  sim.Fail(net.top_meta->id());

  const auto area = *ns::InterestArea::Parse("(USA,*)");
  for (int i = 0; i < 3; ++i) {
    net.client->SubmitQuery(workload::MakeAreaQueryPlan(area),
                            [](const peer::QueryOutcome&) {});
  }
  EXPECT_EQ(net.client->pending_queries(), 3u);
  EXPECT_EQ(sim.stats().queries_shed, 0u);
}

// --- remote shedding under a flash crowd --------------------------------------

workload::FlashCrowdParams MiniCrowd(uint64_t seed) {
  workload::FlashCrowdParams p;
  p.seed = seed;
  p.num_sellers = 6;
  p.items_per_seller = 3;
  // Deliberately non-round rates: no two events of distinct queries land
  // on the same virtual instant, so the per-peer arrival order — which
  // the shed decisions depend on — is the same on every backend.
  p.service_rate_qps = 11.7;
  p.capacity_qps = 7.3;
  p.load_multiplier = 3.4;
  p.duration_seconds = 8;
  p.drain_tail_seconds = 8;
  p.high_priority_fraction = 0.1;
  p.query_deadline_seconds = 2.9;
  p.overload.shed_delay_seconds = 0.45;
  p.overload.max_pending_queries = 24;
  p.overload.budget_rows_per_second = 900;
  return p;
}

// Under a 3.4x crowd the fleet sheds best-effort queries, fans out
// cancels for the timed-out remainder, keeps the high-priority slice
// whole — and leaks nothing.
TEST(FlashCrowd, ShedsBestEffortKeepsHighPriorityNoLeaks) {
  net::Simulator sim;
  workload::FlashCrowdScenario scenario(&sim, MiniCrowd(77));
  const auto& st = scenario.Run();
  EXPECT_GT(st.submitted, 0u);
  EXPECT_GT(st.queries_shed, 0u);   // RED shedding engaged
  EXPECT_GT(st.cancels_sent, 0u);   // give-ups fanned out cancels
  EXPECT_GT(st.complete, 0u);       // admitted queries still finish
  EXPECT_EQ(st.hp_complete, st.hp_submitted);  // priority slice intact
  EXPECT_EQ(st.leaked_pending, 0u);
  EXPECT_EQ(st.leaked_sessions, 0u);
}

// The ablated fleet under the same crowd sheds nothing and times out
// strictly more than the protected one completes around.
TEST(FlashCrowd, AblationShedsNothingAndCollapses) {
  workload::FlashCrowdParams prot = MiniCrowd(78);
  workload::FlashCrowdParams abl = MiniCrowd(78);
  abl.protection = false;

  net::Simulator sim_p;
  workload::FlashCrowdScenario sp(&sim_p, prot);
  const auto stp = sp.Run();

  net::Simulator sim_a;
  workload::FlashCrowdScenario sa(&sim_a, abl);
  const auto sta = sa.Run();

  EXPECT_EQ(sta.queries_shed, 0u);
  EXPECT_EQ(sta.cancels_sent, 0u);
  EXPECT_GT(stp.complete, sta.complete);
  EXPECT_EQ(sta.leaked_pending, 0u);  // deadlines still reap everything
  EXPECT_EQ(sta.leaked_sessions, 0u);
}

// --- cooperative cancellation -------------------------------------------------

/// Finds the peer currently holding a top-k session (the merge
/// coordinator), or null.
peer::Peer* SessionHolder(workload::GarageSaleNetwork* net) {
  std::vector<peer::Peer*> all{net->client, net->top_meta};
  for (auto* p : net->index_servers) all.push_back(p);
  for (auto* p : net->sellers) all.push_back(p);
  for (auto* p : all) {
    if (p->topk_sessions() > 0) return p;
  }
  return nullptr;
}

// A cancel arriving mid-session reaps the coordinator's merge session; a
// duplicated cancel (FaultInjector-style) is idempotent; the session's
// late fetch replies are recognized noise, not unmatched replies.
TEST(Cancel, WireCancelReapsSessionAndDuplicateIsIdempotent) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 5;
  params.items_per_seller = 6;
  params.seed = 41;
  params.client_template.reliability.enabled = true;
  params.client_template.reliability.query_deadline_seconds = 30;
  params.client_template.reliability.max_retries = 0;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);
  // Slow links keep the session open for seconds: fetch replies take a
  // full RTT the injected cancel can beat.
  sim.set_default_link({/*latency_seconds=*/1.0,
                        /*bytes_per_second=*/1.25e8});

  const auto area = *ns::InterestArea::Parse("(USA,*)");
  peer::QueryOutcome out;
  bool returned = false;
  const std::string qid = net.client->SubmitQuery(
      workload::MakeTopKQueryPlan(area, "price", true, 3),
      [&](const peer::QueryOutcome& o) {
        out = o;
        returned = true;
      });

  // Probe the fleet until the merge session opens, then fire the cancel
  // twice (a duplicated delivery) at the coordinator.
  peer::Peer* coordinator = nullptr;
  for (int tick = 1; tick <= 40; ++tick) {
    sim.Schedule(0.25 * tick, [&] {
      if (coordinator != nullptr) return;
      peer::Peer* holder = SessionHolder(&net);
      if (holder == nullptr) return;
      coordinator = holder;
      for (int dup = 0; dup < 2; ++dup) {
        wire::Send(&sim, net.client->id(), holder->id(),
                   {wire::kCancelKind, qid, 0, net::Payload()});
      }
    });
  }
  sim.Run();

  ASSERT_NE(coordinator, nullptr) << "no top-k session ever opened";
  EXPECT_EQ(coordinator->topk_sessions(), 0u);
  EXPECT_EQ(sim.stats().cancelled_sessions_reaped, 1u);  // dup suppressed
  EXPECT_EQ(sim.stats().unmatched_replies, 0u);  // late replies were noise
  // The cancelled query never completes; the client deadline degrades it.
  EXPECT_TRUE(returned);
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(net.client->pending_queries(), 0u);
  EXPECT_EQ(SessionHolder(&net), nullptr);
}

// A cancel for an already-finished query is a no-op, and a cancelled
// query id keeps dropping late/duplicated mqp plans afterwards.
TEST(Cancel, LateCancelIsNoOpAndCancelledIdDropsLatePlans) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 3;
  params.items_per_seller = 2;
  params.seed = 51;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);

  const auto area = *ns::InterestArea::Parse("(USA,*)");
  peer::QueryOutcome out;
  const std::string qid = net.client->SubmitQuery(
      workload::MakeAreaQueryPlan(area),
      [&](const peer::QueryOutcome& o) { out = o; });
  sim.Run();
  ASSERT_TRUE(out.complete);

  // Late cancel for the completed query: nothing to reap, no crash.
  peer::Peer* seller = net.sellers[0];
  wire::Send(&sim, net.client->id(), seller->id(),
             {wire::kCancelKind, qid, 0, net::Payload()});
  sim.Run();
  EXPECT_EQ(sim.stats().cancelled_sessions_reaped, 0u);

  // The seller now drops any late plan replayed under that query id —
  // and keeps dropping duplicates.
  const uint64_t evaluated_before = seller->counters().subplans_evaluated;
  for (int dup = 0; dup < 2; ++dup) {
    Plan late = workload::MakeAreaQueryPlan(area);
    late.set_query_id(qid);
    wire::Send(&sim, net.client->id(), seller->id(),
               {wire::kMqpKind, qid, 0,
                net::MakePayload(algebra::SerializePlan(late))});
  }
  sim.Run();
  EXPECT_EQ(sim.stats().cancelled_sessions_reaped, 2u);  // counted drops
  EXPECT_EQ(seller->counters().subplans_evaluated, evaluated_before);
  EXPECT_EQ(net.client->pending_queries(), 0u);
  EXPECT_EQ(SessionHolder(&net), nullptr);
}

// --- cross-backend determinism ------------------------------------------------

struct CrowdFp {
  std::string trace;
  uint64_t shed = 0;
  uint64_t aborts = 0;
  uint64_t cancels = 0;
  uint64_t reaped = 0;
  bool operator==(const CrowdFp&) const = default;
};

CrowdFp RunCrowd(net::Transport* transport, uint64_t seed) {
  workload::FlashCrowdScenario scenario(transport, MiniCrowd(seed));
  const auto& st = scenario.Run();
  EXPECT_EQ(st.leaked_pending, 0u) << "seed " << seed;
  EXPECT_EQ(st.leaked_sessions, 0u) << "seed " << seed;
  for (const auto& p : scenario.net().owned) {
    if (transport->IsFailed(p->id())) continue;
    EXPECT_EQ(p->CheckInvariants(), std::vector<std::string>{})
        << "seed " << seed;
  }
  return {st.decision_trace, st.queries_shed, st.budget_aborts,
          st.cancels_sent, st.cancelled_sessions_reaped};
}

// The acceptance sweep: per seed, the shed/abort/cancel decision trace
// and counters are bit-identical across a simulator re-run (pure
// determinism) and the threaded runtime at several worker counts
// (backend equivalence). The simulator runs with zero-latency links to
// match the threaded runtime's deliver-at-send-time model — decision
// times must coincide for decisions to coincide.
TEST(OverloadEquivalence, ShedAbortCancelDecisionsMatchManySeeds) {
  const size_t seeds = EquivSeeds(40);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    const net::LinkParams zero_link{
        /*latency_seconds=*/0.0,
        /*bytes_per_second=*/std::numeric_limits<double>::infinity()};
    net::Simulator sim;
    sim.set_default_link(zero_link);
    const CrowdFp reference = RunCrowd(&sim, seed);

    net::Simulator sim2;
    sim2.set_default_link(zero_link);
    const CrowdFp replay = RunCrowd(&sim2, seed);
    ASSERT_EQ(reference, replay) << "simulator replay diverged, seed "
                                 << seed;

    for (const size_t threads : {size_t{1}, size_t{4}}) {
      runtime::ThreadedRuntime rt(
          runtime::RuntimeOptions{.num_threads = threads});
      const CrowdFp got = RunCrowd(&rt, seed);
      rt.Shutdown();
      ASSERT_EQ(reference, got)
          << "seed " << seed << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace mqp
