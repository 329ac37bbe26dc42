// Tests for the million-peer substrate (DESIGN.md §7): the calendar queue
// against a binary heap over the same (time, seq) keys, the simulator's
// dispatch order, event-pool recycling, interned kind counters, cached
// addresses, and the super-peer topology builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "net/calendar_queue.h"
#include "net/simulator.h"
#include "peer/peer.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using net::Message;
using net::NetStats;
using net::PeerId;
using net::Simulator;

// --- calendar queue vs binary heap -------------------------------------------

/// The time shapes simulated traffic puts on the scheduler.
enum class Shape { kTieStorm, kNearTies, kWideSpread, kLattice, kFarFuture };

/// The `i`-th event of a batch of shape `shape` scheduled at `now`.
double ShapedTime(Rng* rng, Shape shape, double now, size_t i) {
  switch (shape) {
    case Shape::kTieStorm:  // equal latencies: one shared instant
      return now + 0.02;
    case Shape::kNearTies: {  // equal up to a few ulps of residue
      double t = now + 0.02;
      for (size_t k = rng->NextBelow(4); k > 0; --k) {
        t = std::nextafter(t, 2 * t);
      }
      return t;
    }
    case Shape::kWideSpread:  // transfer terms fanned over ~40 s
      return now + 40.0 * rng->NextDouble();
    case Shape::kLattice:  // 16 size classes, round-robin
      return now + 0.02 + 0.00125 * static_cast<double>(i % 16);
    case Shape::kFarFuture:  // a lone timer far past the live span
      return now + 1000.0 * static_cast<double>(1 + rng->NextBelow(1000));
  }
  return now;
}

/// A CalendarQueue over an EventPool and a std::priority_queue fed the
/// same (time, seq) keys.
class QueueTwin {
 public:
  void Push(double time) {
    const uint32_t idx = pool_.Acquire();
    pool_[idx].time = time;
    pool_[idx].seq = seq_;
    queue_.Push(pool_, idx);
    heap_.push({time, seq_++});
  }

  /// Pops the minimum from both; fails unless they agree.
  ::testing::AssertionResult Pop(uint32_t* idx) {
    *idx = queue_.PopMin(pool_);
    if (*idx == net::kNilEvent) {
      return ::testing::AssertionFailure()
             << "calendar empty, heap holds " << heap_.size();
    }
    const Key got{pool_[*idx].time, pool_[*idx].seq};
    const Key want = heap_.top();
    heap_.pop();
    if (got != want) {
      return ::testing::AssertionFailure()
             << "popped (" << got.first << ", " << got.second
             << "), heap top (" << want.first << ", " << want.second << ")";
    }
    return ::testing::AssertionSuccess();
  }

  /// Puts a popped event back unchanged, as Run does at its horizon.
  void Requeue(uint32_t idx) {
    queue_.Push(pool_, idx);
    heap_.push({pool_[idx].time, pool_[idx].seq});
  }

  void Release(uint32_t idx) { pool_.Release(idx); }
  double TimeOf(uint32_t idx) const { return pool_[idx].time; }
  size_t size() const { return heap_.size(); }
  bool SizesAgree() const { return queue_.size() == heap_.size(); }
  const net::CalendarQueue& queue() const { return queue_; }

 private:
  using Key = std::pair<double, uint64_t>;
  net::EventPool pool_;
  net::CalendarQueue queue_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap_;
  uint64_t seq_ = 0;
};

// Seeded histories in the simulator's pattern: batches of one shape are
// scheduled at the current time, dispatches advance it and schedule
// follow-ups, and now and then a popped event goes back unchanged (Run's
// horizon). Pushes never fall below the last dispatched time and seq
// always rises. Every pop must be the heap's top.
TEST(CalendarQueue, MatchesBinaryHeapOverThousandSeeds) {
  uint64_t resizes = 0, empty_steps = 0, min_jumps = 0, sorted = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    QueueTwin twin;
    double now = 0;
    const size_t batches = 10 + rng.NextBelow(30);
    for (size_t b = 0; b < batches; ++b) {
      const Shape shape = static_cast<Shape>(rng.NextBelow(5));
      const size_t n = shape == Shape::kFarFuture ? 1 + rng.NextBelow(3)
                                                  : 1 + rng.NextBelow(120);
      for (size_t i = 0; i < n; ++i) twin.Push(ShapedTime(&rng, shape, now, i));
      const size_t dispatches = rng.NextBelow(twin.size() + 1);
      for (size_t k = 0; k < dispatches && twin.size() > 0; ++k) {
        uint32_t idx = net::kNilEvent;
        ASSERT_TRUE(twin.Pop(&idx)) << "seed " << seed;
        if (rng.NextBool(0.05)) {
          twin.Requeue(idx);
          break;
        }
        now = twin.TimeOf(idx);
        twin.Release(idx);
        if (rng.NextBool(0.3)) twin.Push(ShapedTime(&rng, shape, now, k));
      }
      ASSERT_TRUE(twin.SizesAgree()) << "seed " << seed;
    }
    while (twin.size() > 0) {
      uint32_t idx = net::kNilEvent;
      ASSERT_TRUE(twin.Pop(&idx)) << "seed " << seed;
      twin.Release(idx);
    }
    ASSERT_TRUE(twin.queue().empty()) << "seed " << seed;
    resizes += twin.queue().resizes();
    empty_steps += twin.queue().empty_steps();
    min_jumps += twin.queue().min_jumps();
    sorted += twin.queue().chain_sort_events();
  }
  // The sweep reached every adaptive path of the queue.
  EXPECT_GT(resizes, 0u);
  EXPECT_GT(empty_steps, 0u);
  EXPECT_GT(min_jumps, 0u);
  EXPECT_GT(sorted, 0u);
}

// --- simulator dispatch order ------------------------------------------------

/// One dispatch: the clock and the seq the event was given at schedule
/// time (stats().events_scheduled read just before Send or Schedule).
using Dispatch = std::pair<double, uint64_t>;

/// A node whose reaction is a pure function of the message it receives:
/// forwards while the message has budget (125 bytes burn per hop), and
/// schedules an equal-time callback for sizes on the 625 grid — nested
/// sends, ties and schedule-at-now all exercised from inside handlers.
/// Every message carries its seq in `header`.
class EchoNode : public net::PeerNode {
 public:
  EchoNode(Simulator* sim, std::vector<Dispatch>* log)
      : sim_(sim), log_(log) {
    id_ = sim->Register(this);
  }

  static void SendWithSeq(Simulator* sim, Message m) {
    m.header = std::to_string(sim->stats().events_scheduled);
    sim->Send(std::move(m));
  }

  void HandleMessage(const Message& msg) override {
    int64_t seq = -1;
    ASSERT_TRUE(ParseInt64(msg.header, &seq)) << msg.header;
    log_->push_back({sim_->now(), static_cast<uint64_t>(seq)});
    if (msg.size_bytes >= 250) {
      Message m;
      m.from = msg.to;
      m.to = static_cast<PeerId>((msg.to + msg.size_bytes / 125) %
                                 sim_->size());
      m.kind = "ping";
      m.size_bytes = msg.size_bytes - 125;
      SendWithSeq(sim_, std::move(m));
    }
    if (msg.size_bytes % 625 == 0 && msg.size_bytes > 0) {
      const PeerId self = id_;
      Simulator* sim = sim_;
      std::vector<Dispatch>* log = log_;
      const uint64_t cb_seq = sim_->stats().events_scheduled;
      sim_->Schedule(sim_->now(), [sim, log, self, cb_seq] {
        log->push_back({sim->now(), cb_seq});
        Message m;
        m.from = self;
        m.to = static_cast<PeerId>((self + 1) % sim->size());
        m.kind = "ping";
        m.size_bytes = 125;
        SendWithSeq(sim, std::move(m));
      });
    }
  }

 private:
  Simulator* sim_;
  std::vector<Dispatch>* log_;
  PeerId id_ = net::kNoPeer;
};

/// Runs one seeded random scenario — burst sends on a 125-byte size grid
/// (dense time ties), churn via scheduled Fail/Recover, a mid-stream
/// Run(max_time) boundary, a second burst. Returns the dispatch log;
/// `processed` gets the Run totals.
std::vector<Dispatch> RunTrace(uint64_t seed, Simulator* sim,
                               size_t* processed) {
  Rng rng(seed);
  std::vector<Dispatch> log;
  std::vector<std::unique_ptr<EchoNode>> nodes;
  const size_t n = 4 + rng.NextBelow(5);
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<EchoNode>(sim, &log));
  }
  auto schedule = [&](double when, std::function<void()> fn) {
    const uint64_t seq = sim->stats().events_scheduled;
    sim->Schedule(when, [sim, &log, seq, fn = std::move(fn)] {
      log.push_back({sim->now(), seq});
      fn();
    });
  };
  // Churn: a few peers fail and recover on a coarse grid.
  const size_t churns = rng.NextBelow(4);
  for (size_t k = 0; k < churns; ++k) {
    const PeerId p = static_cast<PeerId>(rng.NextBelow(n));
    const double t_fail = 0.01 * static_cast<double>(rng.NextBelow(50));
    const double t_back =
        t_fail + 0.01 * static_cast<double>(1 + rng.NextBelow(30));
    schedule(t_fail, [sim, p] { sim->Fail(p); });
    schedule(t_back, [sim, p] { sim->Recover(p); });
  }
  auto burst = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      Message m;
      m.from = static_cast<PeerId>(rng.NextBelow(n));
      m.to = static_cast<PeerId>(rng.NextBelow(n));
      m.kind = "ping";
      m.size_bytes = 125 * (1 + rng.NextBelow(40));
      EchoNode::SendWithSeq(sim, std::move(m));
    }
  };
  burst(10 + rng.NextBelow(40));
  // A horizon boundary mid-flight: events at exactly the boundary run,
  // later ones keep their (time, seq) order for the next Run.
  *processed = sim->Run(0.05);
  burst(rng.NextBelow(20));
  *processed += sim->Run();
  return log;
}

// A new event never precedes now and always takes a higher seq than any
// event before it, so heap order dispatches in strictly increasing
// (time, seq). The simulator must do exactly that, and dispatch every
// event it scheduled.
TEST(SchedulerEquivalence, ThousandSeedsBitExact) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Simulator sim;
    size_t processed = 0;
    const std::vector<Dispatch> log = RunTrace(seed, &sim, &processed);
    ASSERT_FALSE(log.empty()) << "seed " << seed;
    for (size_t i = 1; i < log.size(); ++i) {
      ASSERT_LT(log[i - 1], log[i])
          << "seed " << seed << " dispatch " << i << ": (" << log[i].first
          << ", " << log[i].second << ") after (" << log[i - 1].first << ", "
          << log[i - 1].second << ")";
    }
    ASSERT_EQ(processed, sim.stats().events_scheduled) << "seed " << seed;
    ASSERT_TRUE(sim.Idle()) << "seed " << seed;
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

// Run(max_time) with events exactly at the horizon: the boundary events
// run now and the rest, in heap order, on the next Run.
TEST(CalendarQueue, HorizonBoundaryMatchesHeap) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(1.0, [&] { order.push_back(2); });  // equal-time FIFO
  sim.Schedule(1.5, [&] { order.push_back(3); });
  sim.Schedule(2.0, [&] { order.push_back(4); });
  const size_t first = sim.Run(1.0);
  EXPECT_EQ(first, 2u);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
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
