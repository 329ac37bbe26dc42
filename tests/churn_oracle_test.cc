// The churn answer oracle (ChurnScenario::CheckAnswers): a seeded sweep of
// churn scenarios on net::Simulator and on ThreadedRuntime in which every
// answer must lie between the certain answers L and the possible answers
// U of the membership history. It also counts and prints false expiries,
// where a live peer expires an origin that was up for its whole TTL (a
// false expiry drops a live seller's items, which only L can see), but
// asserts nothing about them: 4 per backend remain at 1000 seeds, and
// ROADMAP item 3 is to remove them and then assert none.
//
// MQP_EQUIV_SEEDS sets the seed count (CI runs 1000).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "net/simulator.h"
#include "runtime/threaded_runtime.h"
#include "workload/churn.h"
#include "workload/network_builder.h"

namespace mqp {
namespace {

size_t EquivSeeds(size_t fallback) {
  if (const char* env = std::getenv("MQP_EQUIV_SEEDS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

struct OracleRun {
  std::vector<std::string> violations;
  size_t queries = 0;
  size_t complete = 0;
  size_t expiries = 0;
  size_t false_expiries = 0;
};

// A small network under every kind of churn. Downtimes outlast the TTL,
// so crashed sellers expire and come back, and the query spans every
// state, so a complete answer must reach every live seller.
OracleRun RunOracle(net::Transport* transport, uint64_t seed) {
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 8;
  params.items_per_seller = 3;
  params.seed = seed;
  auto net = workload::BuildGarageSaleNetwork(transport, params);
  workload::ChurnParams churn;
  churn.seed = seed;
  churn.duration_seconds = 150;
  churn.event_interval_seconds = 10;
  churn.downtime_seconds = 50;
  churn.query_interval_seconds = 9;
  churn.convergence_tail_seconds = 30;
  churn.reliable_queries = true;
  churn.sync.gossip_interval_seconds = 4;
  churn.sync.refresh_interval_seconds = 10;
  churn.sync.entry_ttl_seconds = 40;
  workload::ChurnScenario scenario(transport, &net, churn);
  scenario.EnableSyncEverywhere();
  scenario.Run();
  OracleRun run;
  run.violations = scenario.CheckAnswers();
  for (const auto& q : scenario.queries_log()) {
    run.queries += q.answered >= 0 ? 1 : 0;
    run.complete += q.complete ? 1 : 0;
  }
  run.expiries = scenario.expiries();
  run.false_expiries = scenario.false_expiries();
  return run;
}

void Sweep(const char* backend, net::Transport* (*make)(),
           void (*done)(net::Transport*)) {
  const size_t seeds = EquivSeeds(100);
  OracleRun total;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    net::Transport* transport = make();
    const OracleRun run = RunOracle(transport, seed);
    done(transport);
    for (const auto& v : run.violations) {
      ADD_FAILURE() << backend << " seed " << seed << ": " << v;
    }
    total.queries += run.queries;
    total.complete += run.complete;
    total.expiries += run.expiries;
    total.false_expiries += run.false_expiries;
    if (::testing::Test::HasFailure()) return;
  }
  std::printf("%s: %zu seeds, %zu answered queries, %zu complete, "
              "%zu expiries, %zu false\n",
              backend, seeds, total.queries, total.complete, total.expiries,
              total.false_expiries);
  // The sweep must exercise both bounds: complete answers for L, and
  // expiries for the false-expiry count.
  EXPECT_GT(total.complete, 0u);
  EXPECT_GT(total.expiries, 0u);
}

TEST(ChurnOracle, SimulatorAnswersLieBetweenCertainAndPossible) {
  Sweep(
      "simulator", []() -> net::Transport* { return new net::Simulator(); },
      [](net::Transport* t) { delete t; });
}

TEST(ChurnOracle, ThreadedAnswersLieBetweenCertainAndPossible) {
  Sweep(
      "threaded",
      []() -> net::Transport* {
        return new runtime::ThreadedRuntime(
            runtime::RuntimeOptions{.num_threads = 2});
      },
      [](net::Transport* t) {
        static_cast<runtime::ThreadedRuntime*>(t)->Shutdown();
        delete t;
      });
}

}  // namespace
}  // namespace mqp
