// Reliability suite (DESIGN.md §9): deterministic fault injection over
// the garage-sale workload, the client retry/failover/degradation layer,
// and drop-accounting parity across the three transport backends.
//
// Fault fates are content-hashed (net/fault_injector.h), so every
// scenario here is a pure function of its seed: the determinism sweeps
// re-run the same plan and demand byte-identical fate traces. Seed
// counts default to a quick smoke sweep; CI's dedicated job sets
// MQP_EQUIV_SEEDS=1000 for the full suite (sanitizer runs shrink it).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/fault_injector.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "peer/peer.h"
#include "runtime/tcp_transport.h"
#include "runtime/threaded_runtime.h"
#include "wire/envelope.h"
#include "workload/churn.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using peer::Peer;
using peer::PeerOptions;
using peer::QueryOutcome;
using runtime::RuntimeOptions;
using runtime::TcpTransport;
using runtime::ThreadedRuntime;
using workload::BuildGarageSaleNetwork;
using workload::GarageSaleNetwork;
using workload::GarageSaleNetworkParams;
using workload::MakeAreaQueryPlan;

size_t EquivSeeds(size_t fallback) {
  if (const char* env = std::getenv("MQP_EQUIV_SEEDS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

void SetReliability(GarageSaleNetwork* net, bool enabled) {
  std::vector<Peer*> all;
  all.push_back(net->client);
  all.push_back(net->top_meta);
  all.insert(all.end(), net->index_servers.begin(), net->index_servers.end());
  all.insert(all.end(), net->sellers.begin(), net->sellers.end());
  for (Peer* p : all) p->mutable_options().reliability.enabled = enabled;
}

bool SellerInArea(const workload::Seller& s, const ns::InterestArea& area) {
  for (const auto& c : area.cells()) {
    if (c.Covers(s.cell)) return true;
  }
  return false;
}

std::vector<size_t> InAreaSellers(const GarageSaleNetwork& net,
                                  const ns::InterestArea& area) {
  std::vector<size_t> idx;
  for (size_t i = 0; i < net.seller_specs.size(); ++i) {
    if (SellerInArea(net.seller_specs[i], area)) idx.push_back(i);
  }
  return idx;
}

// --- fault-fate determinism --------------------------------------------------

/// One garage-sale query under a mixed fault plan, with every fate
/// decision recorded as "<fate>|<from>-><to>|<kind>|<header>" lines.
struct FaultedRun {
  std::string trace;
  size_t fault_drops = 0, fault_dups = 0, fault_delays = 0;
  bool returned = false;
  bool complete = false;
};

FaultedRun RunFaultedQuery(uint64_t seed) {
  net::Simulator sim;
  net::FaultPlan plan;
  plan.seed = seed;
  plan.spec.drop_rate = 0.03;
  plan.spec.dup_rate = 0.02;
  plan.spec.delay_rate = 0.02;
  net::FaultInjector fi(&sim, plan);

  GarageSaleNetworkParams params;
  params.num_sellers = 8;
  params.items_per_seller = 4;
  params.seed = seed;
  auto net = BuildGarageSaleNetwork(&fi, params);
  fi.Arm();

  FaultedRun run;
  fi.set_trace([&](const net::Message& m, char fate) {
    run.trace += fate;
    run.trace += '|';
    run.trace += std::to_string(m.from) + "->" + std::to_string(m.to);
    run.trace += '|';
    run.trace += m.kind;
    run.trace += '|';
    run.trace += m.header;
    run.trace += '\n';
  });
  net.client->SubmitQuery(MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
                          [&](const QueryOutcome& o) {
                            run.returned = true;
                            run.complete = o.complete;
                          });
  fi.Run();
  run.fault_drops = sim.stats().fault_drops;
  run.fault_dups = sim.stats().fault_dups;
  run.fault_delays = sim.stats().fault_delays;
  return run;
}

// Same seed, same plan → byte-identical fate trace and identical fault
// tallies. This is the determinism contract the threaded-equivalence and
// resume machinery lean on.
TEST(FaultDeterminism, SameSeedSameFateTraceManySeeds) {
  const size_t seeds = EquivSeeds(25);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    const FaultedRun a = RunFaultedQuery(seed);
    const FaultedRun b = RunFaultedQuery(seed);
    ASSERT_EQ(a.trace, b.trace) << "seed " << seed;
    ASSERT_EQ(a.fault_drops, b.fault_drops) << "seed " << seed;
    ASSERT_EQ(a.fault_dups, b.fault_dups) << "seed " << seed;
    ASSERT_EQ(a.fault_delays, b.fault_delays) << "seed " << seed;
    EXPECT_TRUE(a.returned) << "seed " << seed;
  }
}

// Different seeds must actually re-roll the coins (a degenerate hash
// would make every sweep above pass vacuously).
TEST(FaultDeterminism, DifferentSeedsDiverge) {
  const FaultedRun a = RunFaultedQuery(101);
  const FaultedRun b = RunFaultedQuery(202);
  EXPECT_NE(a.trace, b.trace);
}

// A retry is a *different* message (the attempt number is stamped into
// the wire header), so it draws fresh coins: on a 50%-lossy first hop a
// query whose initial attempt dies still completes. If retries were
// byte-identical they would share the initial attempt's fate and the
// query could never get through.
TEST(FaultDeterminism, RetriesDrawFreshCoins) {
  bool saw_retry_then_success = false;
  for (uint64_t seed = 1; seed <= 30 && !saw_retry_then_success; ++seed) {
    net::Simulator sim;
    net::FaultPlan plan;
    plan.seed = seed;
    GarageSaleNetworkParams params;
    params.num_sellers = 6;
    params.items_per_seller = 4;
    params.seed = seed;
    net::FaultInjector fi(&sim, plan);
    auto net = BuildGarageSaleNetwork(&fi, params);
    fi.mutable_plan().per_link[{net.client->id(), net.top_meta->id()}] = {
        .drop_rate = 0.5};
    fi.Arm();
    QueryOutcome outcome;
    bool done = false;
    net.client->SubmitQuery(
        MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
        [&](const QueryOutcome& o) {
          outcome = o;
          done = true;
        });
    fi.Run();
    ASSERT_TRUE(done) << "seed " << seed;
    if (outcome.complete && outcome.attempts > 1) {
      saw_retry_then_success = true;
      EXPECT_GT(net.client->counters().query_retries, 0u);
    }
  }
  EXPECT_TRUE(saw_retry_then_success)
      << "no seed in 1..30 had a dropped first attempt rescued by a retry";
}

// --- fault plan mechanics ----------------------------------------------------

// All three fault classes fire under a mixed plan and are tallied in the
// inner transport's NetStats.
TEST(FaultInjection, CountersTallied) {
  net::Simulator sim;
  net::FaultPlan plan;
  plan.seed = 5;
  plan.spec.drop_rate = 0.05;
  plan.spec.dup_rate = 0.05;
  plan.spec.delay_rate = 0.05;
  net::FaultInjector fi(&sim, plan);
  GarageSaleNetworkParams params;
  params.num_sellers = 12;
  params.seed = 5;
  auto net = BuildGarageSaleNetwork(&fi, params);
  fi.Arm();
  size_t done = 0;
  for (int q = 0; q < 8; ++q) {
    fi.Schedule(10.0 * (q + 1), [&] {
      net.client->SubmitQuery(MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
                              [&](const QueryOutcome&) { ++done; });
    });
  }
  fi.Run();
  EXPECT_EQ(done, 8u);
  EXPECT_GT(sim.stats().fault_drops, 0u);
  EXPECT_GT(sim.stats().fault_dups, 0u);
  EXPECT_GT(sim.stats().fault_delays, 0u);
}

// Per-kind overrides scope faults to one message kind: with duplication
// configured for "result" only, every 'D' fate in the trace is a result.
TEST(FaultInjection, PerKindOverridesScopeFaults) {
  net::Simulator sim;
  net::FaultPlan plan;
  plan.seed = 9;
  plan.per_kind[wire::kResultKind] = {.dup_rate = 1.0};
  net::FaultInjector fi(&sim, plan);
  GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.seed = 9;
  auto net = BuildGarageSaleNetwork(&fi, params);
  fi.Arm();
  size_t dup_fates = 0;
  bool only_results_duped = true;
  fi.set_trace([&](const net::Message& m, char fate) {
    if (fate == 'D') {
      ++dup_fates;
      if (m.kind != wire::kResultKind) only_results_duped = false;
    }
  });
  bool done = false;
  net.client->SubmitQuery(MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
                          [&](const QueryOutcome&) { done = true; });
  fi.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(dup_fates, 0u);
  EXPECT_TRUE(only_results_duped);
  EXPECT_EQ(sim.stats().fault_dups, dup_fates);
}

// Scheduled crash/restart events flip the inner transport's failure
// state at the planned times.
TEST(FaultInjection, ScheduledCrashAndRestartFire) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 4;
  params.seed = 3;
  net::FaultPlan plan;
  net::FaultInjector fi(&sim, plan);
  auto net = BuildGarageSaleNetwork(&fi, params);
  const net::PeerId victim = net.sellers[0]->id();
  fi.mutable_plan().crashes.push_back({victim, 10.0, 20.0});
  fi.Arm();
  bool down_at_15 = false, up_at_25 = false;
  fi.Schedule(15.0, [&] { down_at_15 = fi.IsFailed(victim); });
  fi.Schedule(25.0, [&] { up_at_25 = !fi.IsFailed(victim); });
  fi.Run();
  EXPECT_TRUE(down_at_15);
  EXPECT_TRUE(up_at_25);
}

// A link flap drops exactly the flapped link's traffic inside the
// window; the reliability layer rides it out and completes after the
// link comes back.
TEST(FaultInjection, LinkFlapDropsOnlyInWindowThenQueryCompletes) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.seed = 11;
  net::FaultPlan plan;
  net::FaultInjector fi(&sim, plan);
  auto net = BuildGarageSaleNetwork(&fi, params);
  const net::PeerId c = net.client->id(), m = net.top_meta->id();
  fi.mutable_plan().flaps.push_back({c, m, 12.0, 30.0});
  fi.Arm();
  size_t flap_drops = 0;
  bool flaps_scoped = true;
  fi.set_trace([&](const net::Message& msg, char fate) {
    if (fate != 'f') return;
    ++flap_drops;
    if (msg.from != c || msg.to != m) flaps_scoped = false;
    const double t = fi.now();
    if (t < 12.0 || t >= 30.0) flaps_scoped = false;
  });
  QueryOutcome outcome;
  bool done = false;
  fi.Schedule(15.0, [&] {
    net.client->SubmitQuery(MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
                            [&](const QueryOutcome& o) {
                              outcome = o;
                              done = true;
                            });
  });
  fi.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  EXPECT_GT(outcome.attempts, 1u);
  EXPECT_GT(flap_drops, 0u);
  EXPECT_TRUE(flaps_scoped) << "a flap fate fired off-link or off-window";
  EXPECT_GE(sim.stats().fault_drops, flap_drops);
}

// --- acceptance: retries + failover beat the ablation ------------------------

struct CellResult {
  size_t complete = 0;
  size_t submitted = 0;
};

/// The ISSUE.md acceptance cell at test scale: 5% uniform drop plus two
/// well-separated in-area seller outages (each bridged by the 120 s
/// deadline; the gap between windows exceeds the deadline so no query's
/// budget spans both — that would measure the plan, not the policy).
CellResult RunAcceptanceCell(bool retries, size_t num_queries,
                             uint64_t seed) {
  net::Simulator sim;
  net::FaultPlan plan;
  plan.seed = seed;
  plan.spec.drop_rate = 0.05;
  net::FaultInjector fi(&sim, plan);
  GarageSaleNetworkParams params;
  params.num_sellers = 20;
  params.items_per_seller = 4;
  params.seed = seed;
  auto net = BuildGarageSaleNetwork(&fi, params);
  SetReliability(&net, retries);
  const auto area = *ns::InterestArea::Parse("(USA.OR,*)");
  auto in_area = InAreaSellers(net, area);
  if (!in_area.empty()) {
    fi.mutable_plan().crashes.push_back(
        {net.sellers[in_area[0]]->id(), 40.0, 100.0});
  }
  if (in_area.size() > 1) {
    fi.mutable_plan().crashes.push_back(
        {net.sellers[in_area[1]]->id(), 250.0, 310.0});
  }
  fi.Arm();
  CellResult r;
  r.submitted = num_queries;
  for (size_t q = 0; q < num_queries; ++q) {
    fi.Schedule(10.0 * static_cast<double>(q + 1), [&] {
      net.client->SubmitQuery(MakeAreaQueryPlan(area),
                              [&](const QueryOutcome& o) {
                                if (o.complete) ++r.complete;
                              });
    });
  }
  fi.Run();
  return r;
}

// ≥99% completion with retries+failover on; strictly lower with the
// layer ablated. Mirrors bench_c13's shape check at unit-test scale.
TEST(ReliabilityAcceptance, RetriesAndFailoverBeatAblationAtFivePercentLoss) {
  const CellResult on = RunAcceptanceCell(true, 40, 1300);
  const CellResult off = RunAcceptanceCell(false, 40, 1300);
  EXPECT_GE(on.complete * 100.0, on.submitted * 99.0)
      << on.complete << "/" << on.submitted << " with retries on";
  EXPECT_LT(off.complete, on.complete)
      << "ablation matched the reliability layer — the cell is too easy";
}

// --- graceful degradation ----------------------------------------------------

// A seller down past every deadline: the affected queries come back
// timed_out with the partial items the live sellers contributed, the
// partial delivery is counted, and nothing leaks in the pending map.
TEST(ReliabilityDegradation, DeadlineExpiredDeliversPartial) {
  net::Simulator sim;
  net::FaultPlan plan;
  plan.seed = 1300;
  net::FaultInjector fi(&sim, plan);
  GarageSaleNetworkParams params;
  params.num_sellers = 20;
  params.items_per_seller = 4;
  params.seed = 1300;
  auto net = BuildGarageSaleNetwork(&fi, params);
  // Pick an area with at least two in-area sellers so a partial answer
  // has somewhere to come from while one holder is dark.
  ns::InterestArea area = *ns::InterestArea::Parse("(USA.OR,*)");
  for (const char* cand :
       {"(USA.OR,*)", "(USA.WA,*)", "(USA.CA,*)"}) {
    auto a = *ns::InterestArea::Parse(cand);
    if (InAreaSellers(net, a).size() >= 2) {
      area = a;
      break;
    }
  }
  auto in_area = InAreaSellers(net, area);
  ASSERT_GE(in_area.size(), 2u) << "seed produced no multi-seller area";
  // Down from before the first query until far past the last deadline.
  fi.mutable_plan().crashes.push_back(
      {net.sellers[in_area[0]]->id(), 20.0, 0.0});
  fi.Arm();
  size_t partial_with_items = 0, returned = 0;
  for (int q = 0; q < 6; ++q) {
    fi.Schedule(30.0 + 10.0 * q, [&] {
      net.client->SubmitQuery(MakeAreaQueryPlan(area),
                              [&](const QueryOutcome& o) {
                                ++returned;
                                if (o.timed_out && !o.items.empty()) {
                                  ++partial_with_items;
                                }
                              });
    });
  }
  fi.Run();
  EXPECT_EQ(returned, 6u) << "a query never came back at all";
  EXPECT_GT(partial_with_items, 0u)
      << "no degradation: timed-out queries carried no items";
  EXPECT_GT(net.client->counters().partials_delivered, 0u);
  EXPECT_GT(sim.stats().partials_delivered, 0u);
  EXPECT_EQ(net.client->pending_queries(), 0u) << "pending entries leaked";
}

// --- duplicate suppression ---------------------------------------------------

// Every result message duplicated on the wire: the client's callback
// still fires exactly once per query and the extra copies are counted.
TEST(ReliabilityDuplicates, DuplicatedResultsSuppressed) {
  net::Simulator sim;
  net::FaultPlan plan;
  plan.seed = 21;
  plan.per_kind[wire::kResultKind] = {.dup_rate = 1.0};
  net::FaultInjector fi(&sim, plan);
  GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.seed = 21;
  auto net = BuildGarageSaleNetwork(&fi, params);
  fi.Arm();
  size_t callbacks = 0;
  net.client->SubmitQuery(MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
                          [&](const QueryOutcome& o) {
                            ++callbacks;
                            EXPECT_TRUE(o.complete);
                          });
  fi.Run();
  EXPECT_EQ(callbacks, 1u) << "a duplicate result reached the callback";
  EXPECT_GT(net.client->counters().duplicates_suppressed, 0u);
  EXPECT_GT(sim.stats().duplicates_suppressed, 0u);
  EXPECT_EQ(net.client->pending_queries(), 0u);
}

// --- pending-map hygiene -----------------------------------------------------

// Waves of doomed queries (sole bootstrap dark) must not grow the
// pending map: every entry is reaped at its deadline, wave after wave.
TEST(ReliabilityLeak, PendingQueriesReapedAcrossChurnWaves) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 4;
  params.seed = 33;
  auto net = BuildGarageSaleNetwork(&sim, params);
  sim.Fail(net.top_meta->id());
  uint64_t timeouts_before = 0;
  for (int wave = 0; wave < 5; ++wave) {
    size_t returned = 0;
    for (int q = 0; q < 8; ++q) {
      net.client->SubmitQuery(
          MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
          [&](const QueryOutcome& o) {
            ++returned;
            EXPECT_FALSE(o.complete);
            EXPECT_TRUE(o.timed_out);
          });
    }
    sim.Run();
    EXPECT_EQ(returned, 8u) << "wave " << wave;
    EXPECT_EQ(net.client->pending_queries(), 0u)
        << "pending map grew across wave " << wave;
    const uint64_t timeouts = net.client->counters().query_timeouts;
    EXPECT_GT(timeouts, timeouts_before) << "wave " << wave;
    timeouts_before = timeouts;
  }
}

// --- the retry ladder --------------------------------------------------------

/// When each attempt of one doomed query left the client, and how the
/// query ended.
struct Ladder {
  std::vector<uint32_t> attempts;  ///< envelope attempt of each mqp send
  std::vector<double> launches;    ///< virtual time of each mqp send
  double completed_at = 0;
  uint32_t outcome_attempts = 0;
  bool timed_out = false;
};

Ladder RunLadder(uint32_t max_retries, double deadline_seconds) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 1;
  params.seed = 41;
  auto net = BuildGarageSaleNetwork(&sim, params);
  sim.Fail(net.sellers[0]->id());
  auto& rel = net.client->mutable_options().reliability;
  rel.max_retries = max_retries;
  rel.query_deadline_seconds = deadline_seconds;
  Ladder ladder;
  sim.set_on_send([&](const net::Message& m) {
    if (m.from != net.client->id() || m.kind != wire::kMqpKind) return;
    auto env = wire::DecodeEnvelope(m);
    ASSERT_TRUE(env.ok());
    ladder.attempts.push_back(env->attempt);
    ladder.launches.push_back(sim.now());
  });
  size_t returned = 0;
  net.client->SubmitQuery(
      MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)")),
      [&](const QueryOutcome& o) {
        ++returned;
        ladder.completed_at = o.completed_at;
        ladder.outcome_attempts = o.attempts;
        ladder.timed_out = o.timed_out;
      });
  sim.Run();
  EXPECT_EQ(returned, 1u);
  EXPECT_EQ(net.client->pending_queries(), 0u);
  return ladder;
}

// The client's only seller is down, so every attempt dead-ends and comes
// back short. The launch times pin the attempt-timer rule: attempt a
// waits Backoff(a) after the previous one came back, the last allowed
// attempt's timer arms at the deadline, and no timer passes the
// deadline; completed_at pins when the client gives up.
TEST(ReliabilityLadder, DeadEndAttemptsLaunchOnTheBackoffLadder) {
  struct Want {
    uint32_t max_retries;
    double deadline;
    std::vector<double> launches;
    double completed_at;
  };
  const Want wants[] = {
      {0, 0, {0.040242399999999998}, 0.14294080000000001},
      {0, 20, {0.040242399999999998}, 0.14297200000000002},
      {1, 0, {0.040242399999999998, 3.9101170979830404}, 4.0135554979830408},
      {1, 20, {0.040242399999999998, 3.9101482979830404}, 4.0136026979830408},
      {3,
       0,
       {0.040242399999999998, 3.9101170979830404, 11.249340761505607,
        24.453577844479476},
       24.557016244479474},
      {3,
       20,
       {0.040242399999999998, 3.9101482979830404, 11.249387961505608},
       20.0402424},
  };
  for (const Want& w : wants) {
    SCOPED_TRACE("max_retries " + std::to_string(w.max_retries) +
                 ", deadline " + std::to_string(w.deadline));
    const Ladder l = RunLadder(w.max_retries, w.deadline);
    ASSERT_EQ(l.launches.size(), w.launches.size());
    for (size_t i = 0; i < w.launches.size(); ++i) {
      EXPECT_EQ(l.attempts[i], i);
      EXPECT_EQ(l.launches[i], w.launches[i]) << "attempt " << i;
    }
    EXPECT_EQ(l.completed_at, w.completed_at);
    EXPECT_EQ(l.outcome_attempts, w.launches.size());
    EXPECT_TRUE(l.timed_out);
  }
}

// --- failover and suspicion --------------------------------------------------

// A pulled replica gives the binding a second alternative; when the
// fresh source dies the resolver fails over to the stale replica and the
// query completes — with the failover counted.
TEST(ReliabilityFailover, ReplicaAlternativeAbsorbsSourceFailure) {
  net::Simulator sim;
  PeerOptions so;
  so.name = "src";
  so.roles.base = true;
  Peer source(&sim, so);
  auto area = ns::MakeArea({"USA/OR/Portland", "Books/Fiction"});
  workload::GarageSaleGenerator gen(7);
  auto gen_sellers = gen.MakeSellers(1);
  source.PublishCollection("c0", area, gen.MakeItems(gen_sellers[0], 5));

  PeerOptions io;
  io.name = "idx";
  io.roles.index = true;
  io.roles.authoritative = true;
  io.interest = ns::MakeArea({"USA/OR", "*"});
  Peer idx(&sim, io);
  source.AddBootstrap(idx.address());
  source.JoinNetwork();
  sim.Run();
  idx.PullIndexedData(/*delay_minutes=*/30);
  sim.Run();
  sim.Fail(source.id());

  PeerOptions co;
  co.name = "client";
  Peer client(&sim, co);
  client.AddBootstrap(idx.address());
  QueryOutcome outcome;
  bool done = false;
  client.SubmitQuery(MakeAreaQueryPlan(area), [&](const QueryOutcome& o) {
    outcome = o;
    done = true;
  });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.items.size(), 5u);
  EXPECT_GT(sim.stats().failovers, 0u)
      << "the dead source was not routed around";
}

// Timed-out queries quarantine the servers whose answers never arrived;
// the quarantine expires after the TTL.
TEST(ReliabilityFailover, SuspicionQuarantineExpiresAfterTtl) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 8;
  params.items_per_seller = 3;
  params.seed = 17;
  auto net = BuildGarageSaleNetwork(&sim, params);
  const auto area = *ns::InterestArea::Parse("(USA,*)");
  // Fail one seller permanently; the query degrades to a partial and the
  // unanswered leaf lands on the suspicion list.
  Peer* victim = net.sellers[0];
  sim.Fail(victim->id());
  bool done = false;
  net.client->SubmitQuery(MakeAreaQueryPlan(area),
                          [&](const QueryOutcome& o) {
                            done = true;
                            EXPECT_FALSE(o.complete);
                          });
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(net.client->IsSuspect(victim->address()))
      << "the unanswered seller was never suspected";
  // Jump past the quarantine TTL: the suspicion must lapse.
  bool lapsed = false;
  sim.Schedule(sim.now() + peer::kSuspicionTtlSeconds + 1.0,
               [&] { lapsed = !net.client->IsSuspect(victim->address()); });
  sim.Run();
  EXPECT_TRUE(lapsed) << "suspicion outlived its TTL";
}

// --- drop-accounting parity across backends ----------------------------------

class CountingSink : public net::PeerNode {
 public:
  explicit CountingSink(net::Transport* t) { id = t->Register(this); }
  void HandleMessage(const net::Message&) override {
    received.fetch_add(1, std::memory_order_relaxed);
  }
  net::PeerId id = net::kNoPeer;
  std::atomic<size_t> received{0};
};

net::Message Mail(net::PeerId from, net::PeerId to) {
  net::Message m;
  m.from = from;
  m.to = to;
  m.kind = "probe";
  m.size_bytes = 32;
  return m;
}

// Send-side accounting: a failed sender originates nothing
// (drops_from_failed), a failed recipient swallows sends
// (drops_to_failed) — identically on the simulator and the threaded
// runtime.
TEST(DropAccounting, ThreadedSendSideMatchesSimulator) {
  auto run = [](net::Transport* t) {
    CountingSink a(t), b(t);
    t->Fail(b.id);
    t->Send(Mail(a.id, b.id));
    t->Recover(b.id);
    t->Fail(a.id);
    t->Send(Mail(a.id, b.id));
    t->Run();
    return std::pair<uint64_t, uint64_t>(
        std::as_const(*t).stats().drops_from_failed,
        std::as_const(*t).stats().drops_to_failed);
  };
  net::Simulator sim;
  const auto sim_counts = run(&sim);
  ThreadedRuntime rt(RuntimeOptions{.num_threads = 4});
  const auto rt_counts = run(&rt);
  rt.Shutdown();
  EXPECT_EQ(sim_counts, (std::pair<uint64_t, uint64_t>(1, 1)));
  EXPECT_EQ(rt_counts, sim_counts)
      << "threaded send-side drop accounting diverged from the simulator";
}

// In-transit accounting: mail already queued for a peer that fails
// before delivery is dropped *at delivery time* and still counted as
// drops_to_failed (the simulator's in-transit contract, DESIGN.md §9).
TEST(DropAccounting, ThreadedInTransitFailureCountsDrop) {
  ThreadedRuntime rt(RuntimeOptions{.num_threads = 2});
  CountingSink a(&rt), b(&rt);
  // The pool is not running yet: these enqueue into b's mailbox.
  rt.Send(Mail(a.id, b.id));
  rt.Send(Mail(a.id, b.id));
  rt.Fail(b.id);  // fails while the mail is still in transit
  rt.Run();
  EXPECT_EQ(b.received.load(), 0u);
  EXPECT_EQ(std::as_const(rt).stats().drops_to_failed, 2u);
  rt.Shutdown();
}

// TCP loopback parity, send side: same contract as above over real
// sockets.
TEST(DropAccounting, TcpSendSideCountsDrops) {
  TcpTransport tcp;
  if (!tcp.ok()) GTEST_SKIP() << "no loopback sockets in this environment";
  CountingSink a(&tcp), b(&tcp);
  tcp.Fail(b.id);
  tcp.Send(Mail(a.id, b.id));
  tcp.Recover(b.id);
  tcp.Fail(a.id);
  tcp.Send(Mail(a.id, b.id));
  tcp.Run();
  EXPECT_EQ(std::as_const(tcp).stats().drops_from_failed, 1u);
  EXPECT_EQ(std::as_const(tcp).stats().drops_to_failed, 1u);
  EXPECT_EQ(b.received.load(), 0u);
  tcp.Shutdown();
}

/// A sink whose first message parks the connection's reader thread until
/// released — the window in which a peer can fail with mail in transit.
class BlockingSink : public net::PeerNode {
 public:
  explicit BlockingSink(net::Transport* t) { id = t->Register(this); }
  void HandleMessage(const net::Message&) override {
    const size_t n = received.fetch_add(1, std::memory_order_acq_rel);
    if (n == 0) {
      entered.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  net::PeerId id = net::kNoPeer;
  std::atomic<size_t> received{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
};

// TCP in-transit parity: a frame already on the wire when its recipient
// fails is dropped at delivery and counted — the regression test for the
// delivery-time re-check in TcpTransport::Deliver.
TEST(DropAccounting, TcpInTransitFailureCountsDrop) {
  TcpTransport tcp;
  if (!tcp.ok()) GTEST_SKIP() << "no loopback sockets in this environment";
  CountingSink a(&tcp);
  BlockingSink b(&tcp);
  // m1 parks b's reader inside the handler; m2 queues behind it on the
  // same (ordered) connection.
  tcp.Send(Mail(a.id, b.id));
  tcp.Send(Mail(a.id, b.id));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!b.entered.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(b.entered.load()) << "first frame never reached the handler";
  tcp.Fail(b.id);  // m2 is now in transit toward a failed peer
  b.release.store(true, std::memory_order_release);
  tcp.Run();
  EXPECT_EQ(b.received.load(), 1u) << "the in-transit frame was delivered";
  EXPECT_GE(std::as_const(tcp).stats().drops_to_failed, 1u);
  tcp.Shutdown();
}

// --- sim-vs-threaded equivalence under faults --------------------------------

/// The runtime_test churn fingerprint, reproduced under an armed fault
/// plan: membership counts plus the final sync-layer state of every live
/// synced peer. Anti-entropy must absorb lossy, duplicating, reordering
/// gossip and still converge every backend to the *same* catalogs —
/// drops only delay rounds, duplicates are idempotent, and refresh
/// heartbeats keep advancing the vectors so no single content-hashed
/// drop can stall an exchange forever. (Link flaps are excluded here:
/// their window test reads the clock, and the two backends drain the
/// build phase at epsilon-different epochs.)
struct ChurnFp {
  size_t fails = 0, recovers = 0, departs = 0, joins = 0;
  size_t queries_submitted = 0;
  std::vector<std::set<std::string>> catalogs;
  /// Excluded from equality: a reply delta's content depends on what the
  /// responder applied *earlier in the same tick*, and that intra-tick
  /// order shifts with per-hop latency — so the per-message fault tally
  /// legitimately differs across backends. Compared as > 0 only.
  uint64_t faults_fired = 0;

  bool operator==(const ChurnFp& o) const {
    return fails == o.fails && recovers == o.recovers &&
           departs == o.departs && joins == o.joins &&
           queries_submitted == o.queries_submitted &&
           catalogs == o.catalogs;
  }
};

std::vector<std::set<std::string>> LiveCatalogKeySets(
    const workload::ChurnScenario& scenario) {
  std::vector<std::set<std::string>> out;
  for (const Peer* p : scenario.LiveSyncedPeers()) {
    std::set<std::string> keys;
    for (const auto& [o, s] : p->sync()->versioned().vector()) {
      keys.insert("vec|" + o + "|" + std::to_string(s));
    }
    for (const auto& [key, rec] : p->sync()->versioned().records()) {
      if (rec.tombstone) continue;
      if (rec.entry.kind == catalog::SyncEntryKind::kPresence) continue;
      const catalog::IndexEntry& e = rec.entry.entry;
      keys.insert(rec.version.origin + "|" + rec.entry.urn + "|" +
                  std::to_string(static_cast<int>(e.level)) + "|" +
                  e.area.ToString() + "|" + e.server + "|" + e.xpath);
    }
    out.push_back(std::move(keys));
  }
  return out;
}

ChurnFp RunChurnUnderFaults(net::Transport* transport, uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  // Faults scoped to the gossip kinds: their payloads are pure logical
  // state (version vectors, versioned records — never local clock
  // stamps), so the content-hashed fates are backend-invariant. Query
  // traffic is left alone — plan bodies carry provenance *times*, which
  // shift by per-hop latency between backends and would legitimately
  // re-roll the coins.
  const net::FaultSpec gossip_faults{
      .drop_rate = 0.05, .dup_rate = 0.05, .delay_rate = 0.05};
  plan.per_kind[wire::kSyncDigestKind] = gossip_faults;
  plan.per_kind[wire::kSyncDeltaKind] = gossip_faults;
  net::FaultInjector fi(transport, plan);
  GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.items_per_seller = 4;
  params.seed = seed;
  auto net = BuildGarageSaleNetwork(&fi, params);
  workload::ChurnParams churn;
  churn.seed = seed;
  // The knife-edge parameters from runtime_test.cc: tick grids and TTL
  // boundaries stay ≥ 2 s away from every comparison the two backends
  // could resolve differently.
  churn.duration_seconds = 62;
  churn.event_interval_seconds = 8;
  churn.downtime_seconds = 16;
  churn.query_interval_seconds = 20;
  churn.convergence_tail_seconds = 58;
  churn.sync.gossip_interval_seconds = 4;
  churn.sync.refresh_interval_seconds = 10;
  churn.sync.entry_ttl_seconds = 300;
  workload::ChurnScenario scenario(&fi, &net, churn);
  scenario.EnableSyncEverywhere();
  fi.Arm();
  scenario.Run();
  for (const Peer* p : scenario.LiveSyncedPeers()) {
    EXPECT_EQ(p->CheckInvariants(), std::vector<std::string>{})
        << "seed " << seed;
  }
  ChurnFp fp;
  fp.fails = scenario.stats().fails;
  fp.recovers = scenario.stats().recovers;
  fp.departs = scenario.stats().departs;
  fp.joins = scenario.stats().joins;
  fp.queries_submitted = scenario.stats().queries_submitted;
  const net::NetStats& stats = std::as_const(*transport).stats();
  fp.faults_fired =
      stats.fault_drops + stats.fault_dups + stats.fault_delays;
  fp.catalogs = LiveCatalogKeySets(scenario);
  return fp;
}

// Churn + gossip + an armed fault plan, compared across backends: the
// seeded fault schedule and the final sync-layer state must match the
// simulator's at every thread count.
TEST(FaultEquivalence, ChurnUnderFaultsMatchesSimulator) {
  const size_t seeds = std::max<size_t>(1, EquivSeeds(40) / 4);
  for (uint64_t seed = 3; seed < 3 + seeds; ++seed) {
    net::Simulator sim;
    const ChurnFp reference = RunChurnUnderFaults(&sim, seed);
    EXPECT_GT(reference.faults_fired, 0u)
        << "seed " << seed << ": the fault plan never fired";
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      ThreadedRuntime rt(RuntimeOptions{.num_threads = threads});
      const ChurnFp got = RunChurnUnderFaults(&rt, seed);
      EXPECT_GT(got.faults_fired, 0u) << "seed " << seed;
      ASSERT_EQ(reference, got)
          << "seed " << seed << " threads " << threads;
      rt.Shutdown();
    }
  }
}

}  // namespace
}  // namespace mqp
