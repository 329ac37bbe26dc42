// Tests for runtime::ThreadedRuntime (DESIGN.md §8): seeded equivalence
// with the deterministic simulator on the garage-sale and churn
// scenarios, mailbox backpressure, graceful shutdown, and sharded-stats
// merging.
//
// Seed counts default to a quick smoke sweep; CI's dedicated runtime job
// sets MQP_EQUIV_SEEDS=1000 for the full suite (one process, one core,
// TSan-instrumented runs shrink it instead).
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

#include "catalog/catalog.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "peer/peer.h"
#include "runtime/threaded_runtime.h"
#include "workload/churn.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using runtime::RuntimeOptions;
using runtime::ThreadedRuntime;

size_t EquivSeeds(size_t fallback) {
  if (const char* env = std::getenv("MQP_EQUIV_SEEDS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

/// Peer::CheckInvariants of every peer `transport` has not failed, read
/// once the run is idle: no query left pending, no top-k session left
/// open past its deadline.
std::vector<std::string> InvariantViolations(
    const net::Transport& transport,
    const workload::GarageSaleNetwork& network) {
  std::vector<std::string> out;
  for (const auto& p : network.owned) {
    if (transport.IsFailed(p->id())) continue;
    for (std::string& v : p->CheckInvariants()) out.push_back(std::move(v));
  }
  return out;
}

// --- garage-sale query equivalence -------------------------------------------

/// What a query result must agree on across backends: completeness and
/// the multiset of item names. Timing fields (completed_at) and traffic
/// ordering are backend-specific — the threaded runtime has no latency
/// model — and are deliberately excluded (DESIGN.md §8).
struct QueryFp {
  bool returned = false;
  bool complete = false;
  std::vector<std::string> names;
  bool operator==(const QueryFp&) const = default;
};

QueryFp RunGarageSaleQuery(net::Transport* transport, uint64_t seed,
                           std::vector<std::string>* violations = nullptr) {
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.items_per_seller = 5;
  params.seed = seed;
  auto net = workload::BuildGarageSaleNetwork(transport, params);
  auto area = *ns::InterestArea::Parse("(USA,*)");
  QueryFp fp;
  net.client->SubmitQuery(workload::MakeAreaQueryPlan(area),
                          [&](const peer::QueryOutcome& o) {
                            fp.returned = true;
                            fp.complete = o.complete;
                            for (const auto& item : o.items) {
                              fp.names.push_back(item->ChildText("name"));
                            }
                            std::sort(fp.names.begin(), fp.names.end());
                          });
  transport->Run();
  if (violations != nullptr) {
    *violations = InvariantViolations(*transport, net);
  }
  return fp;
}

// The acceptance sweep: for every seed, the threaded runtime at 1, 4 and
// 8 worker threads returns the same complete result set as the
// simulator, and every backend ends with the peers' invariants intact.
TEST(RuntimeEquivalence, GarageSaleMatchesSimulatorManySeeds) {
  const size_t seeds = EquivSeeds(1000);
  const std::vector<std::string> none;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    net::Simulator sim;
    std::vector<std::string> violations;
    const QueryFp reference = RunGarageSaleQuery(&sim, seed, &violations);
    EXPECT_TRUE(reference.returned) << "seed " << seed;
    EXPECT_TRUE(reference.complete) << "seed " << seed;
    EXPECT_EQ(violations, none) << "seed " << seed << " simulator";
    for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      ThreadedRuntime rt(RuntimeOptions{.num_threads = threads});
      const QueryFp got = RunGarageSaleQuery(&rt, seed, &violations);
      ASSERT_EQ(reference, got)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(violations, none) << "seed " << seed << " threads " << threads;
      rt.Shutdown();
    }
  }
}

// --- churn equivalence -------------------------------------------------------

/// The final converged *sync-layer* state of every live synced peer: the
/// version vector plus every live (non-tombstoned, non-presence) record,
/// keyed by origin and the semantic entry fields. This — not the raw
/// projection catalog — is what anti-entropy guarantees converges
/// identically on every backend: the projection additionally absorbs
/// referral-cache entries learned *during query resolution*, and a query
/// racing a failure window takes latency-dependent paths (the simulator
/// models per-hop latency, the threaded runtime delivers at send time),
/// so those best-effort cache side effects legitimately differ. Local
/// receive stamps (stamped_at, LastHeard) are excluded for the same
/// reason; the parameters below keep the TTL boundary out of reach so
/// stamps can't feed back into liveness (see RunChurn).
std::vector<std::set<std::string>> LiveCatalogKeySets(
    const workload::ChurnScenario& scenario) {
  std::vector<std::set<std::string>> out;
  for (const peer::Peer* p : scenario.LiveSyncedPeers()) {
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

struct ChurnFp {
  size_t fails = 0, recovers = 0, departs = 0, joins = 0;
  size_t queries_submitted = 0;
  std::vector<std::set<std::string>> catalogs;
  bool operator==(const ChurnFp&) const = default;
};

ChurnFp RunChurn(net::Transport* transport, uint64_t seed,
                 std::vector<std::string>* violations) {
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.items_per_seller = 4;
  params.seed = seed;
  auto net = workload::BuildGarageSaleNetwork(transport, params);
  workload::ChurnParams churn;
  churn.seed = seed;
  // Gossip starts when the build phase drains, and the drain ends at a
  // slightly different clock value per backend (the simulator's last
  // delivery carries latency, the threaded clock stops at the last
  // timer), so every tick grid is shifted by a small non-representable
  // epoch. Two knife edges follow, and the parameters keep ≥ 2 s of
  // slack on both:
  //   * the refresh interval must NOT be a multiple of the gossip tick,
  //     or `now - last_refresh >= interval` compares exactly equal
  //     values and an ulp of the epoch decides it (10 with a 4 s tick
  //     means heartbeats every 12 s with 2 s slack);
  //   * the refresh horizon (derived as duration_seconds) must NOT lie
  //     on the tick grid, or `now <= horizon` does the same (62 keeps a
  //     2 s margin from every grid point).
  churn.duration_seconds = 62;
  churn.event_interval_seconds = 8;
  churn.downtime_seconds = 16;
  churn.query_interval_seconds = 20;
  churn.convergence_tail_seconds = 58;
  churn.sync.gossip_interval_seconds = 4;
  churn.sync.refresh_interval_seconds = 10;
  // TTL beyond the scenario horizon (~126 s), so liveness expiry never
  // fires. Expiry compares `now - LastHeard(origin)` against the TTL,
  // and LastHeard is a *local receive* stamp: it moves by per-hop
  // latency (simulator vs zero-latency runtime) and by a whole gossip
  // tick when concurrent mailbox arrival order changes which exchange
  // first delivers a record. Near a TTL boundary that flips live/dead —
  // a genuine timing sensitivity, not a runtime bug — so the
  // equivalence scenario keeps the boundary out of reach and leaves TTL
  // policy to sync_test. Everything else (tombstones, restamp-on-
  // recovery, LWW merge) is order-invariant and checked exactly.
  churn.sync.entry_ttl_seconds = 300;
  workload::ChurnScenario scenario(transport, &net, churn);
  scenario.EnableSyncEverywhere();
  scenario.Run();
  ChurnFp fp;
  fp.fails = scenario.stats().fails;
  fp.recovers = scenario.stats().recovers;
  fp.departs = scenario.stats().departs;
  fp.joins = scenario.stats().joins;
  fp.queries_submitted = scenario.stats().queries_submitted;
  fp.catalogs = LiveCatalogKeySets(scenario);
  *violations = InvariantViolations(*transport, net);
  return fp;
}

// Churn + gossip, the most order-sensitive scenario in the repo: the
// seeded membership trace is identical by construction, and the
// sync-layer state (version vectors + live records) must converge to
// exactly the simulator's on every peer. (Query outcomes *during*
// active churn race against failure windows and are compared across
// thread counts below, not against the simulator.)
TEST(RuntimeEquivalence, ChurnFinalCatalogsMatchSimulator) {
  const size_t seeds = EquivSeeds(40);
  const std::vector<std::string> none;
  for (uint64_t seed = 3; seed < 3 + seeds; ++seed) {
    net::Simulator sim;
    std::vector<std::string> violations;
    const ChurnFp reference = RunChurn(&sim, seed, &violations);
    EXPECT_EQ(violations, none) << "seed " << seed << " simulator";
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      ThreadedRuntime rt(RuntimeOptions{.num_threads = threads});
      const ChurnFp got = RunChurn(&rt, seed, &violations);
      ASSERT_EQ(reference, got)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(violations, none) << "seed " << seed << " threads " << threads;
      rt.Shutdown();
    }
  }
}

// Thread-count invariance under churn, including mid-flight query
// outcomes: whatever the pool size, the same seed ends the same way.
TEST(RuntimeEquivalence, ChurnInvariantAcrossThreadCounts) {
  const size_t seeds = std::max<size_t>(1, EquivSeeds(40) / 3);
  const std::vector<std::string> none;
  for (uint64_t seed = 3; seed < 3 + seeds; ++seed) {
    std::vector<std::string> violations;
    ThreadedRuntime rt1(RuntimeOptions{.num_threads = 1});
    const ChurnFp one = RunChurn(&rt1, seed, &violations);
    rt1.Shutdown();
    EXPECT_EQ(violations, none) << "seed " << seed << " threads 1";
    ThreadedRuntime rt4(RuntimeOptions{.num_threads = 4});
    const ChurnFp four = RunChurn(&rt4, seed, &violations);
    rt4.Shutdown();
    EXPECT_EQ(violations, none) << "seed " << seed << " threads 4";
    ASSERT_EQ(one, four) << "seed " << seed;
  }
}

// --- mailbox backpressure ----------------------------------------------------

class SlowSink : public net::PeerNode {
 public:
  SlowSink(net::Transport* t, std::chrono::microseconds delay)
      : delay_(delay) {
    id = t->Register(this);
  }
  void HandleMessage(const net::Message&) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    received.fetch_add(1, std::memory_order_relaxed);
  }
  net::PeerId id = net::kNoPeer;
  std::atomic<size_t> received{0};

 private:
  std::chrono::microseconds delay_;
};

// An external (non-worker) sender flooding a slow peer through a tiny
// mailbox must block — never drop — and every message must still arrive.
TEST(RuntimeBackpressure, ExternalSenderBlocksAndNothingIsLost) {
  ThreadedRuntime rt(RuntimeOptions{.num_threads = 2, .mailbox_capacity = 4});
  SlowSink sink(&rt, std::chrono::microseconds(200));
  rt.Run();  // start the pool (backpressure engages once it is live)
  constexpr size_t kSends = 400;
  for (size_t i = 0; i < kSends; ++i) {
    net::Message m;
    m.from = net::kNoPeer;
    m.to = sink.id;
    m.kind = "flood";
    m.size_bytes = 64;
    rt.Send(std::move(m));
  }
  rt.Run();
  EXPECT_EQ(sink.received.load(), kSends);
  const net::NetStats& merged = std::as_const(rt).stats();
  EXPECT_EQ(merged.messages, kSends);
  EXPECT_GT(merged.mailbox_backpressure_waits, 0u)
      << "a 400-message flood through a 4-slot mailbox never blocked";
  rt.Shutdown();
}

class FloodOnGo : public net::PeerNode {
 public:
  FloodOnGo(net::Transport* t, size_t burst) : t_(t), burst_(burst) {
    id = t->Register(this);
  }
  void set_target(net::PeerId target) { target_ = target; }
  void HandleMessage(const net::Message&) override {
    for (size_t i = 0; i < burst_; ++i) {
      net::Message m;
      m.from = id;
      m.to = target_;
      m.kind = "burst";
      m.size_bytes = 64;
      t_->Send(std::move(m));
    }
  }
  net::PeerId id = net::kNoPeer;

 private:
  net::Transport* t_;
  net::PeerId target_ = net::kNoPeer;
  size_t burst_;
};

// A worker-thread sender must never block on a full mailbox (deadlock
// hazard); it overflows the bound and the overflow is counted.
TEST(RuntimeBackpressure, WorkerSenderOverflowsInsteadOfBlocking) {
  ThreadedRuntime rt(RuntimeOptions{.num_threads = 2, .mailbox_capacity = 2});
  FloodOnGo flooder(&rt, /*burst=*/64);
  SlowSink sink(&rt, std::chrono::microseconds(500));
  flooder.set_target(sink.id);
  net::Message go;
  go.from = net::kNoPeer;
  go.to = flooder.id;
  go.kind = "go";
  go.size_bytes = 8;
  rt.Send(std::move(go));
  rt.Run();
  EXPECT_EQ(sink.received.load(), 64u);
  const net::NetStats& merged = std::as_const(rt).stats();
  EXPECT_GT(merged.mailbox_soft_overflows, 0u)
      << "a 64-message worker burst into a 2-slot mailbox never overflowed";
  rt.Shutdown();
}

// --- graceful shutdown -------------------------------------------------------

// Shutdown() drains queued mail before joining the pool; afterwards the
// runtime refuses new work instead of crashing.
TEST(RuntimeShutdown, DrainsPendingMailThenRefusesNewWork) {
  ThreadedRuntime rt(RuntimeOptions{.num_threads = 4});
  SlowSink sink(&rt, std::chrono::microseconds(50));
  rt.Run();  // start the pool
  constexpr size_t kSends = 200;
  for (size_t i = 0; i < kSends; ++i) {
    net::Message m;
    m.from = net::kNoPeer;
    m.to = sink.id;
    m.kind = "drainme";
    m.size_bytes = 32;
    rt.Send(std::move(m));
  }
  rt.Shutdown();
  EXPECT_EQ(sink.received.load(), kSends) << "Shutdown lost queued mail";
  // Post-shutdown sends are no-ops, not crashes.
  net::Message late;
  late.from = net::kNoPeer;
  late.to = sink.id;
  late.kind = "late";
  late.size_bytes = 32;
  rt.Send(std::move(late));
  EXPECT_EQ(sink.received.load(), kSends);
  // Idempotent.
  rt.Shutdown();
}

// Destroying a never-started runtime must be clean (no pool to join).
TEST(RuntimeShutdown, UnusedRuntimeDestructsCleanly) {
  ThreadedRuntime rt(RuntimeOptions{.num_threads = 8});
  SlowSink sink(&rt, std::chrono::microseconds(0));
  (void)sink;
}

// --- sharded stats -----------------------------------------------------------

// Per-thread shards must merge to the whole truth: per-kind counts sum
// to the totals, and a full garage-sale build over 8 threads agrees with
// the merged message count regardless of which worker tallied each send.
TEST(RuntimeStats, ShardsMergeToConsistentTotals) {
  ThreadedRuntime rt(RuntimeOptions{.num_threads = 8});
  const QueryFp fp = RunGarageSaleQuery(&rt, /*seed=*/17);
  EXPECT_TRUE(fp.complete);
  const net::NetStats& merged = std::as_const(rt).stats();
  EXPECT_GT(merged.messages, 0u);
  EXPECT_GT(merged.bytes, 0u);
  uint64_t by_kind_total = 0;
  merged.messages_by_kind.ForEachSorted(
      [&](std::string_view, uint64_t count) { by_kind_total += count; });
  EXPECT_EQ(by_kind_total, merged.messages)
      << "per-kind shard merge disagrees with the message total";
  rt.Shutdown();
}

}  // namespace
}  // namespace mqp
