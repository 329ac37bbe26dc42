// Comparative claims the benches reproduce, asserted on each bench's own
// deterministic simulator configuration. A claim is gated by its shape —
// orderings, equalities and ratios with floors — not by its numbers, and
// the scenario exists once, shared with the bench that prints it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/churn.h"
#include "workload/coordinator_race.h"
#include "workload/replicas.h"

namespace mqp {
namespace {

// C2 (bench_c2_mqp_vs_coordinator), the paper's §2: at 8, 32 and 128
// sellers the MQP, coord-ship and coord-push answers are all complete,
// both coordinators answer strictly sooner than the migrating MQP, and
// pushing the selection ships strictly fewer bytes than shipping raw
// collections. (The MQP itself may ship more than either: it carries the
// data it gathers from seller to seller.) With one of 32 sellers failed
// both coordinators answer a partial at their timeout and the MQP client
// answers a partial instead of losing the query.
TEST(PaperClaims, C2CoordinatorFasterPushShipsLess) {
  auto expect_shape = [](const workload::Race& race,
                         const std::vector<std::string>& misses) {
    std::string failed;
    for (const std::string& f : misses) failed += "\n  " + f;
    EXPECT_TRUE(failed.empty()) << race.sellers << " sellers:" << failed;
  };
  for (const size_t sellers : workload::kRaceSellerCounts) {
    const workload::Race race = workload::RunRace(sellers, false);
    expect_shape(race, workload::HealthyRaceShape(race));
  }
  const workload::Race failed =
      workload::RunRace(workload::kRaceFailureSellers, true);
  expect_shape(failed, workload::FailedRaceShape(failed));
}

// C3 (bench_c3_intensional), the paper's §4.2 Example 1: as the replica
// count k grows, intensional statements keep the answer at one base visit
// and one copy of the 40 items; without them every one of the k+1
// holders is visited and the answer repeats k+1 times. Statements ship
// strictly fewer bytes and answer sooner at every k.
TEST(PaperClaims, C3StatementsKeepOneBaseVisit) {
  for (const size_t replicas : workload::kReplicaCounts) {
    const auto with = workload::RunReplicaQuery(true, replicas);
    const auto without = workload::RunReplicaQuery(false, replicas);
    std::string failed;
    for (const std::string& f :
         workload::ReplicaStatementsShape(with, without, replicas)) {
      failed += "\n  " + f;
    }
    EXPECT_TRUE(failed.empty()) << replicas << " replica(s):" << failed;
  }
}

// C7 (bench_c7_churn): this repo's gossip extension (DESIGN.md §3), not a
// claim of the paper. Gossip converges within the measured rounds after
// the churn window, ships at most a 2.5th of a naive full re-push,
// repeats bit-identically per seed, and with retries every query
// completes.
TEST(PaperClaims, C7GossipConvergesUnderChurn) {
  for (const auto& size : workload::kChurnConvergenceSizes) {
    const auto a = workload::RunChurnConvergence(size.seed, size.sellers,
                                                 /*reliable_queries=*/false);
    const auto b = workload::RunChurnConvergence(size.seed, size.sellers,
                                                 /*reliable_queries=*/false);
    const auto retries = workload::RunChurnConvergence(
        size.seed, size.sellers, /*reliable_queries=*/true);
    std::string failed;
    for (const std::string& f :
         workload::ChurnConvergenceShape(a, b, retries, size.max_rounds)) {
      failed += "\n  " + f;
    }
    EXPECT_TRUE(failed.empty()) << size.sellers << " sellers:" << failed;
  }
}

}  // namespace
}  // namespace mqp
