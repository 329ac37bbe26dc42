// Comparative claims the benches reproduce, asserted on each bench's own
// deterministic simulator configuration. A claim is gated by its shape —
// orderings, equalities and ratios with floors — not by its numbers, and
// the scenario exists once, shared with the bench that prints it.
#include <gtest/gtest.h>

#include <string>

#include "workload/churn.h"

namespace mqp {
namespace {

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
