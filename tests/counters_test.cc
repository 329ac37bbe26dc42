// Counter-table tests (DESIGN.md §12). A peer records each peer-reported
// counter once, in its own PeerCounters and in the transport's NetStats
// shard, so after any run the peers' counters sum to the merged
// NetStats. And a peer counts each malformed message it drops exactly
// once.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "net/fault_injector.h"
#include "net/simulator.h"
#include "ns/hierarchy.h"
#include "peer/peer.h"
#include "runtime/threaded_runtime.h"
#include "wire/envelope.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

using peer::Peer;
using peer::PeerOptions;
using peer::QueryOutcome;

struct NamedCounter {
  const char* name;
  uint64_t PeerReportedCounters::*member;
};

std::vector<NamedCounter> PeerReported() {
  return {
#define MQP_NAMED_COUNTER(name) {#name, &PeerReportedCounters::name},
      MQP_PEER_REPORTED_COUNTERS(MQP_NAMED_COUNTER)
#undef MQP_NAMED_COUNTER
  };
}

// A burst of area and top-k queries (some with predicates, so top-k
// ships bounded subqueries as well as bounded fetches) into a garage-sale
// network under a lossy fault plan, with every peer's modeled core slower
// than the burst: the run retries, sheds and merges top-k batches.
// Returns the merged NetStats after the peers' counters were checked
// against it.
net::NetStats RunMixedLoad(net::Transport* transport) {
  net::FaultPlan plan;
  plan.seed = 5;
  plan.spec.drop_rate = 0.04;
  plan.spec.dup_rate = 0.03;
  plan.spec.delay_rate = 0.03;
  net::FaultInjector fi(transport, plan);
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 10;
  params.items_per_seller = 6;
  params.seed = 5;
  auto net = workload::BuildGarageSaleNetwork(&fi, params);
  for (auto& p : net.owned) {
    peer::PeerOptions& o = p->mutable_options();
    o.reliability.query_deadline_seconds = 30;
    o.reliability.retry_timeout_seconds = 2;
    o.overload.service_rate_qps = 12;
    o.overload.shed_delay_seconds = 0.4;
    o.overload.max_pending_queries = 24;
  }
  fi.Arm();
  const auto area = *ns::InterestArea::Parse("(USA,*)");
  size_t answered = 0;
  constexpr int kQueries = 48;
  for (int q = 0; q < kQueries; ++q) {
    fi.Schedule(0.03 * q, [&, q] {
      algebra::Plan query =
          q % 3 != 0 ? workload::MakeAreaQueryPlan(area)
                     : workload::MakeTopKQueryPlan(
                           area, "price", q % 2 == 0, 3,
                           q % 2 == 0 ? algebra::FieldLess("price", "100")
                                      : nullptr);
      net.client->SubmitQuery(std::move(query),
                              [&](const QueryOutcome&) { ++answered; });
    });
  }
  fi.Run();
  EXPECT_EQ(answered, static_cast<size_t>(kQueries));

  const net::NetStats& stats = std::as_const(fi).stats();
  for (const NamedCounter& c : PeerReported()) {
    uint64_t sum = 0;
    for (const auto& p : net.owned) sum += p->counters().*c.member;
    EXPECT_EQ(sum, stats.*c.member) << c.name;
  }
  return stats;
}

void ExpectExercised(const net::NetStats& stats) {
  EXPECT_GT(stats.fault_drops, 0u);
  EXPECT_GT(stats.query_retries, 0u);
  EXPECT_GT(stats.queries_shed, 0u);
  EXPECT_GT(stats.topk_batches, 0u);
  EXPECT_GT(stats.plan_parses, 0u);
  EXPECT_GT(stats.resolve_index_probes, 0u);
  EXPECT_GT(stats.field_accessor_hits, 0u);
}

TEST(CounterTable, PeersSumToNetStatsOnSimulator) {
  net::Simulator sim;
  ExpectExercised(RunMixedLoad(&sim));
}

TEST(CounterTable, PeersSumToMergedShardsOnThreadedRuntime) {
  runtime::ThreadedRuntime rt(runtime::RuntimeOptions{.num_threads = 4});
  ExpectExercised(RunMixedLoad(&rt));
  rt.Shutdown();
}

// One malformed message of each kind a peer decodes without a reply
// counter: each is dropped and counted once in decode_rejects, never
// also in reply_decode_failures.
TEST(CounterTable, EachMalformedMessageIsOneDecodeReject) {
  net::Simulator sim;
  auto hierarchy = ns::MakeGarageSaleNamespace();
  PeerOptions so;
  so.name = "server";
  so.roles.index = true;
  so.roles.category = true;
  Peer server(&sim, so);
  server.ServeHierarchies(&hierarchy);
  // Gossip on, so sync digests and deltas reach their decoders.
  sync::SyncOptions gossip;
  gossip.horizon_seconds = 1;
  server.EnableSync(gossip);
  PeerOptions co;
  co.name = "client";
  Peer client(&sim, co);
  // A pending category request, so the reply below reaches the parser.
  client.RequestCategories("nowhere", "Merchandise", "Furniture",
                           [](const std::vector<std::string>&) {
                             ADD_FAILURE() << "malformed reply delivered";
                           });

  const std::string garbage = "<broken attr='x'";
  net::Message bad_header(client.id(), server.id(), wire::kMqpKind, garbage);
  bad_header.header = "not-a-header\n";
  sim.Send(std::move(bad_header));
  for (const char* kind :
       {wire::kMqpKind, wire::kResultKind, wire::kRegisterKind,
        wire::kCategoryQueryKind, wire::kFetchKind, wire::kSyncDigestKind,
        wire::kSyncDeltaKind}) {
    wire::Send(&sim, client.id(), server.id(),
               {kind, "client-x", 0, net::MakePayload(garbage)});
  }
  wire::Send(&sim, server.id(), client.id(),
             {wire::kCategoryReplyKind, "client-c0", 0,
              net::MakePayload("<cat-reply><cat>Furniture/Chairs")});
  sim.Run();

  EXPECT_EQ(server.counters().decode_rejects, 8u);
  EXPECT_EQ(client.counters().decode_rejects, 1u);
  EXPECT_EQ(sim.stats().decode_rejects, 9u);
  EXPECT_EQ(sim.stats().reply_decode_failures, 0u);
}

}  // namespace
}  // namespace mqp
