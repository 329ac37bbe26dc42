// Tests for the million-peer substrate (DESIGN.md §7): calendar-queue /
// binary-heap scheduler equivalence, event-pool recycling, interned kind
// counters, cached addresses, and the super-peer topology builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/simulator.h"
#include "peer/peer.h"
#include "workload/churn.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using net::Message;
using net::NetStats;
using net::PeerId;
using net::Simulator;

// --- scheduler equivalence ---------------------------------------------------

/// One observed delivery: everything a handler can see that could expose
/// an ordering difference between the two schedulers.
struct Delivery {
  double now;
  PeerId to;
  PeerId from;
  size_t size;
  bool operator==(const Delivery&) const = default;
};

/// A node whose reaction is a pure function of the message it receives:
/// forwards while the message has budget (125 bytes burn per hop), and
/// schedules an equal-time callback for sizes on the 625 grid — nested
/// sends, ties and schedule-at-now all exercised from inside handlers.
class EchoNode : public net::PeerNode {
 public:
  EchoNode(Simulator* sim, std::vector<Delivery>* log)
      : sim_(sim), log_(log) {
    id_ = sim->Register(this);
  }

  void HandleMessage(const Message& msg) override {
    log_->push_back({sim_->now(), msg.to, msg.from, msg.size_bytes});
    if (msg.size_bytes >= 250) {
      Message m;
      m.from = msg.to;
      m.to = static_cast<PeerId>((msg.to + msg.size_bytes / 125) %
                                 sim_->size());
      m.kind = "ping";
      m.size_bytes = msg.size_bytes - 125;
      sim_->Send(std::move(m));
    }
    if (msg.size_bytes % 625 == 0 && msg.size_bytes > 0) {
      const PeerId self = id_;
      Simulator* sim = sim_;
      sim_->Schedule(sim_->now(), [sim, self] {
        Message m;
        m.from = self;
        m.to = static_cast<PeerId>((self + 1) % sim->size());
        m.kind = "ping";
        m.size_bytes = 125;
        sim->Send(std::move(m));
      });
    }
  }

 private:
  Simulator* sim_;
  std::vector<Delivery>* log_;
  PeerId id_ = net::kNoPeer;
};

struct TraceResult {
  std::vector<Delivery> log;
  double final_now = 0;
  uint64_t messages = 0, bytes = 0, events = 0;
  uint64_t drops_from = 0, drops_to = 0;
};

/// Runs one seeded random scenario — burst sends on a 125-byte size grid
/// (dense time ties), churn via scheduled Fail/Recover, a mid-stream
/// Run(max_time) boundary, a second burst — under the chosen scheduler.
TraceResult RunTrace(uint64_t seed, bool calendar) {
  Rng rng(seed);
  Simulator sim;
  sim.set_use_calendar_queue(calendar);
  std::vector<Delivery> log;
  std::vector<std::unique_ptr<EchoNode>> nodes;
  const size_t n = 4 + rng.NextBelow(5);
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<EchoNode>(&sim, &log));
  }
  // Churn: a few peers fail and recover on a coarse grid.
  const size_t churns = rng.NextBelow(4);
  for (size_t k = 0; k < churns; ++k) {
    const PeerId p = static_cast<PeerId>(rng.NextBelow(n));
    const double t_fail = 0.01 * static_cast<double>(rng.NextBelow(50));
    const double t_back =
        t_fail + 0.01 * static_cast<double>(1 + rng.NextBelow(30));
    sim.Schedule(t_fail, [&sim, p] { sim.Fail(p); });
    sim.Schedule(t_back, [&sim, p] { sim.Recover(p); });
  }
  const size_t burst = 10 + rng.NextBelow(40);
  for (size_t i = 0; i < burst; ++i) {
    Message m;
    m.from = static_cast<PeerId>(rng.NextBelow(n));
    m.to = static_cast<PeerId>(rng.NextBelow(n));
    m.kind = "ping";
    m.size_bytes = 125 * (1 + rng.NextBelow(40));
    sim.Send(std::move(m));
  }
  // A horizon boundary mid-flight: events at exactly the boundary run,
  // later ones keep their (time, seq) order for the next Run.
  sim.Run(0.05);
  const size_t burst2 = rng.NextBelow(20);
  for (size_t i = 0; i < burst2; ++i) {
    Message m;
    m.from = static_cast<PeerId>(rng.NextBelow(n));
    m.to = static_cast<PeerId>(rng.NextBelow(n));
    m.kind = "ping";
    m.size_bytes = 125 * (1 + rng.NextBelow(40));
    sim.Send(std::move(m));
  }
  sim.Run();

  TraceResult r;
  r.log = std::move(log);
  r.final_now = sim.now();
  r.messages = sim.stats().messages;
  r.bytes = sim.stats().bytes;
  r.events = sim.stats().events_scheduled;
  r.drops_from = sim.stats().drops_from_failed;
  r.drops_to = sim.stats().drops_to_failed;
  return r;
}

TEST(SchedulerEquivalence, ThousandSeedsBitExact) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    TraceResult heap = RunTrace(seed, /*calendar=*/false);
    TraceResult cal = RunTrace(seed, /*calendar=*/true);
    ASSERT_EQ(heap.log.size(), cal.log.size()) << "seed " << seed;
    ASSERT_EQ(heap.log, cal.log) << "delivery order diverged, seed " << seed;
    ASSERT_EQ(heap.final_now, cal.final_now) << "seed " << seed;
    ASSERT_EQ(heap.messages, cal.messages) << "seed " << seed;
    ASSERT_EQ(heap.bytes, cal.bytes) << "seed " << seed;
    ASSERT_EQ(heap.events, cal.events) << "seed " << seed;
    ASSERT_EQ(heap.drops_from, cal.drops_from) << "seed " << seed;
    ASSERT_EQ(heap.drops_to, cal.drops_to) << "seed " << seed;
  }
}

// The full stack on top of the scheduler: a joined garage-sale network
// answering area queries must produce identical results, traffic and
// timings under both schedulers.
TEST(SchedulerEquivalence, GarageSaleQueriesIdentical) {
  struct Fingerprint {
    bool complete = false;
    size_t items = 0;
    std::vector<std::string> names;
    double completed_at = 0;
    uint64_t messages = 0, bytes = 0;
    bool operator==(const Fingerprint&) const = default;
  };
  auto run = [](uint64_t seed, bool calendar) {
    Simulator sim;
    sim.set_use_calendar_queue(calendar);
    workload::GarageSaleNetworkParams params;
    params.num_sellers = 6;
    params.items_per_seller = 5;
    params.seed = seed;
    auto net = workload::BuildGarageSaleNetwork(&sim, params);
    auto area = *ns::InterestArea::Parse("(USA,*)");
    Fingerprint fp;
    net.client->SubmitQuery(workload::MakeAreaQueryPlan(area),
                            [&](const peer::QueryOutcome& o) {
                              fp.complete = o.complete;
                              fp.items = o.items.size();
                              for (const auto& item : o.items) {
                                fp.names.push_back(item->ChildText("name"));
                              }
                              std::sort(fp.names.begin(), fp.names.end());
                              fp.completed_at = o.completed_at;
                            });
    sim.Run();
    fp.messages = sim.stats().messages;
    fp.bytes = sim.stats().bytes;
    return fp;
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Fingerprint heap = run(seed, false);
    Fingerprint cal = run(seed, true);
    EXPECT_TRUE(heap.complete) << "seed " << seed;
    ASSERT_EQ(heap, cal) << "seed " << seed;
  }
}

// Churn + gossip: the most order-sensitive scenario in the repo (failure
// windows, TTL expiry and digest exchange all race on the clock) ends in
// the same version-vector fingerprint under both schedulers.
TEST(SchedulerEquivalence, ChurnScenarioIdentical) {
  auto run = [](uint64_t seed, bool calendar) {
    Simulator sim;
    sim.set_use_calendar_queue(calendar);
    workload::GarageSaleNetworkParams params;
    params.num_sellers = 6;
    params.items_per_seller = 4;
    params.seed = seed;
    auto net = workload::BuildGarageSaleNetwork(&sim, params);
    workload::ChurnParams churn;
    churn.seed = seed;
    churn.duration_seconds = 60;
    churn.event_interval_seconds = 8;
    churn.downtime_seconds = 16;
    churn.query_interval_seconds = 20;
    churn.convergence_tail_seconds = 60;
    churn.sync.gossip_interval_seconds = 4;
    churn.sync.refresh_interval_seconds = 12;
    churn.sync.entry_ttl_seconds = 40;
    workload::ChurnScenario scenario(&sim, &net, churn);
    scenario.EnableSyncEverywhere();
    scenario.Run();
    struct Snap {
      std::string fingerprint;
      uint64_t messages, bytes, events;
    } snap{scenario.VectorFingerprint(), sim.stats().messages,
           sim.stats().bytes, sim.stats().events_scheduled};
    return snap;
  };
  for (uint64_t seed = 3; seed <= 12; ++seed) {
    auto heap = run(seed, false);
    auto cal = run(seed, true);
    ASSERT_EQ(heap.fingerprint, cal.fingerprint) << "seed " << seed;
    ASSERT_EQ(heap.messages, cal.messages) << "seed " << seed;
    ASSERT_EQ(heap.bytes, cal.bytes) << "seed " << seed;
    ASSERT_EQ(heap.events, cal.events) << "seed " << seed;
  }
}

// --- event pool --------------------------------------------------------------

class CountingNode : public net::PeerNode {
 public:
  explicit CountingNode(Simulator* sim) { sim->Register(this); }
  void HandleMessage(const Message&) override { ++received; }
  size_t received = 0;
};

// After a drain every slot is back on the free list, and a second wave
// of the same size is served entirely from recycled slots — zero slab
// growth, every acquire a pool hit.
TEST(EventPool, RecyclesSlotsAcrossWaves) {
  Simulator sim;
  CountingNode a(&sim), b(&sim);
  auto wave = [&] {
    for (int i = 0; i < 500; ++i) {
      Message m;
      m.from = 0;
      m.to = 1;
      m.kind = "ping";
      m.size_bytes = 100 + static_cast<size_t>(i % 7);
      sim.Send(std::move(m));
    }
    sim.Run();
  };
  wave();
  EXPECT_EQ(sim.event_pool().live(), 0u);
  const size_t high_water = sim.event_pool().capacity();
  const uint64_t acquired0 = sim.event_pool().acquired();
  const uint64_t hits0 = sim.event_pool().pool_hits();
  wave();
  EXPECT_EQ(sim.event_pool().live(), 0u);
  EXPECT_EQ(sim.event_pool().capacity(), high_water) << "slab regrew";
  const uint64_t acquired = sim.event_pool().acquired() - acquired0;
  const uint64_t hits = sim.event_pool().pool_hits() - hits0;
  EXPECT_EQ(acquired, hits) << "warm wave missed the free list";
}

// A peer failing with messages already in flight: deliveries are
// suppressed but their slots must still be recycled, never dispatched.
TEST(EventPool, FailedDeliveryStillReleasesSlot) {
  Simulator sim;
  CountingNode a(&sim), b(&sim);
  for (int i = 0; i < 50; ++i) {
    Message m;
    m.from = 0;
    m.to = 1;
    m.kind = "ping";
    m.size_bytes = 100;
    sim.Send(std::move(m));
  }
  sim.Fail(1);  // in transit: Send accepted them, delivery must not land
  sim.Run();
  EXPECT_EQ(b.received, 0u);
  EXPECT_EQ(sim.event_pool().live(), 0u);
  sim.Recover(1);
  Message m;
  m.from = 0;
  m.to = 1;
  m.kind = "ping";
  m.size_bytes = 100;
  sim.Send(std::move(m));
  sim.Run();
  EXPECT_EQ(b.received, 1u);
  EXPECT_EQ(sim.event_pool().live(), 0u);
}

// --- calendar sizing ---------------------------------------------------------

class StampNode : public net::PeerNode {
 public:
  explicit StampNode(Simulator* sim) : sim_(sim) { sim->Register(this); }
  void HandleMessage(const Message& msg) override {
    times.push_back(sim_->now());
    bodies.push_back(msg.body());
  }
  Simulator* sim_;
  std::vector<double> times;
  std::vector<std::string> bodies;
};

// Resize / width-estimation stress: a tie storm (thousands of identical
// times), a wide spread, and interleaved near-tie lattices, in one
// queue's lifetime. Deliveries must stay time-sorted with FIFO ties, and
// the bucket array must actually have adapted.
TEST(CalendarQueue, AdaptsAcrossDistributionShapes) {
  Simulator sim;
  StampNode a(&sim), b(&sim);
  size_t sent = 0;
  // Tie storm: same size => same latency => one shared instant.
  for (int i = 0; i < 4000; ++i, ++sent) {
    sim.Send({0, 1, "ping", std::to_string(i), 500});
  }
  // Wide spread: sizes fan latencies over ~40 seconds.
  for (int i = 0; i < 2000; ++i, ++sent) {
    sim.Send({0, 1, "ping", std::to_string(i),
              25000 * static_cast<size_t>(i + 1)});
  }
  // Interleaved lattices: 16 size classes round-robin.
  for (int i = 0; i < 4000; ++i, ++sent) {
    sim.Send({0, 1, "ping", std::to_string(i),
              1250 * static_cast<size_t>(1 + i % 16)});
  }
  sim.Run();
  ASSERT_EQ(b.times.size(), sent);
  EXPECT_TRUE(std::is_sorted(b.times.begin(), b.times.end()));
  // FIFO within the tie storm: bodies 0..3999 in send order.
  for (int i = 0; i < 4000; ++i) {
    EXPECT_EQ(b.bodies[static_cast<size_t>(i)], std::to_string(i));
  }
  EXPECT_GT(sim.stats().calendar_resizes, 0u);
  EXPECT_EQ(sim.event_pool().live(), 0u);
}

// Run(max_time) with events exactly at the horizon: both schedulers run
// the boundary event now and the rest, in order, on the next Run.
TEST(CalendarQueue, HorizonBoundaryMatchesHeap) {
  for (const bool calendar : {false, true}) {
    Simulator sim;
    sim.set_use_calendar_queue(calendar);
    std::vector<int> order;
    sim.Schedule(1.0, [&] { order.push_back(1); });
    sim.Schedule(1.0, [&] { order.push_back(2); });  // equal-time FIFO
    sim.Schedule(1.5, [&] { order.push_back(3); });
    sim.Schedule(2.0, [&] { order.push_back(4); });
    const size_t first = sim.Run(1.0);
    EXPECT_EQ(first, 2u) << "calendar=" << calendar;
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4})) << "calendar=" << calendar;
  }
}

// --- interned kinds / NetStats ----------------------------------------------

TEST(KindTable, InternIsStableAndSorted) {
  const net::KindId a = net::InternKind("zz-substrate-test-b");
  const net::KindId b = net::InternKind("zz-substrate-test-a");
  EXPECT_NE(a, b);
  EXPECT_EQ(net::InternKind("zz-substrate-test-b"), a);
  EXPECT_EQ(net::FindKind("zz-substrate-test-a"), b);
  EXPECT_EQ(net::KindNameOf(a), "zz-substrate-test-b");

  net::KindCounters counters;
  counters.Slot(a) += 3;
  counters.Slot(b) += 5;
  EXPECT_EQ(counters.at("zz-substrate-test-b"), 3u);
  EXPECT_EQ(counters.find("zz-substrate-test-a")->second, 5u);
  EXPECT_EQ(counters.find("never-interned-kind-xyz"), counters.end());

  // ForEachSorted iterates in kind-name order regardless of intern order.
  std::vector<std::string> names;
  counters.ForEachSorted([&](std::string_view kind, uint64_t count) {
    if (count > 0) names.emplace_back(kind);
  });
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(NetStats, ClearZeroesEverythingKeepsKinds) {
  Simulator sim;
  CountingNode a(&sim), b(&sim);
  sim.Send({0, 1, "ping", "x", 100});
  sim.Run();
  EXPECT_GT(sim.stats().messages, 0u);
  EXPECT_GT(sim.stats().messages_by_kind.at("ping"), 0u);
  // Every counter of the table (common/counters.h), so a counter added
  // later is covered without touching this test.
  std::vector<uint64_t NetStats::*> counters;
#define MQP_COUNTER_POINTER(name) counters.push_back(&NetStats::name);
  MQP_NET_COUNTERS(MQP_COUNTER_POINTER)
#undef MQP_COUNTER_POINTER
  // NetStats holds nothing but table counters and the two per-kind
  // arrays, so the generated Clear and MergeFrom reach every member.
  ASSERT_EQ(sizeof(NetStats), counters.size() * sizeof(uint64_t) +
                                  2 * sizeof(net::KindCounters));
  NetStats& stats = sim.stats();
  NetStats shard;
  for (size_t i = 0; i < counters.size(); ++i) {
    stats.*counters[i] = 1000 * (i + 1);
    shard.*counters[i] = i + 1;
  }
  stats.MergeFrom(shard);
  stats.MergeFrom(shard);
  for (size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(stats.*counters[i], 1002 * (i + 1)) << "counter #" << i;
  }
  const net::KindId ping = net::FindKind("ping");
  const uint64_t* slot = &stats.messages_by_kind.Slot(ping);
  stats.Clear();
  for (size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(stats.*counters[i], 0u) << "counter #" << i;
  }
  EXPECT_EQ(stats.messages_by_kind.at("ping"), 0u);
  // Clear keeps the per-kind array (same slot, no reallocation), and the
  // interned table itself is untouched by a stats clear.
  EXPECT_EQ(&stats.messages_by_kind.Slot(ping), slot);
  EXPECT_NE(net::FindKind("ping"), net::kNoKind);
  sim.Send({0, 1, "ping", "x", 100});
  sim.Run();
  EXPECT_EQ(sim.stats().messages, 1u);
  EXPECT_EQ(sim.stats().messages_by_kind.at("ping"), 1u);
}

// --- cached addresses --------------------------------------------------------

TEST(Simulator, AddressCacheAndViewLookup) {
  Simulator sim;
  CountingNode a(&sim), b(&sim);
  // Cached: same storage on every call, equal to the pure computation.
  const std::string& addr0 = sim.Address(0);
  EXPECT_EQ(addr0, Simulator::AddressOf(0));
  EXPECT_EQ(&addr0, &sim.Address(0));
  // Lookup takes a view: subfields of a larger buffer resolve without
  // copying out a std::string first.
  const std::string blob = "peer=" + sim.Address(1) + ";rest";
  const std::string_view view(blob.data() + 5, sim.Address(1).size());
  auto found = sim.Lookup(view);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 1u);
}

// --- super-peer builder ------------------------------------------------------

TEST(SuperPeerNetwork, BuildsAndAnswersCityQueries) {
  Simulator sim;
  workload::SuperPeerNetworkParams params;
  params.num_super_peers = 2;
  params.leaves_per_super = 8;
  params.cities_per_super = 4;
  params.categories = 3;
  params.items_per_leaf = 2;
  params.seed = 11;
  params.sync_catalog_tier = true;
  params.sync.gossip_interval_seconds = 5;
  params.sync.horizon_seconds = 30;
  auto net = workload::BuildSuperPeerNetwork(&sim, params);
  ASSERT_EQ(net.super_peers.size(), 2u);
  ASSERT_EQ(net.leaves.size(), 16u);
  EXPECT_EQ(sim.size(), 20u);  // root + client + 2 supers + 16 leaves

  // City (s=0, c=1): leaves j with j % 4 == 1 under super 0 => j in {1,5}.
  peer::QueryOutcome outcome;
  bool done = false;
  net.client->SubmitQuery(
      workload::MakeAreaQueryPlan(workload::SuperPeerCity(0, 1)),
      [&](const peer::QueryOutcome& o) {
        outcome = o;
        done = true;
      });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.items.size(), 2 * params.items_per_leaf);

  // Region (s=1): every item under super 1.
  done = false;
  net.client->SubmitQuery(
      workload::MakeAreaQueryPlan(workload::SuperPeerRegion(1)),
      [&](const peer::QueryOutcome& o) {
        outcome = o;
        done = true;
      });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.items.size(),
            params.leaves_per_super * params.items_per_leaf);

  // The catalog tier gossips; leaves don't (sync load scales with N).
  EXPECT_GT(sim.stats().messages_by_kind.at("sync-digest"), 0u);
}

}  // namespace
}  // namespace mqp
