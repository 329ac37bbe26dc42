// The C2 scenario (paper §2), shared by bench_c2_mqp_vs_coordinator and
// PaperClaims.C2CoordinatorFasterPushShipsLess: the same selective query
// (price < 20 over [USA, *], 20 items per seller) runs on one garage-sale
// network as a migrating MQP, as a coordinator that ships raw collections
// and as one that pushes the selection to the sources. The paper's
// trade: "mutant query plans trade away pipelining and parallelism for
// robustness, autonomous optimization at each peer and reduced
// deployment costs."
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mqp::workload {

inline constexpr size_t kRaceSellerCounts[] = {8, 32, 128};  ///< C2's sweep
inline constexpr size_t kRaceFailureSellers = 32;  ///< the failure case
inline constexpr double kRaceCoordinatorTimeout = 8.0;  ///< seconds

/// \brief One architecture's run of the C2 query.
struct RaceRun {
  bool ok = false;        ///< an answer came back
  bool complete = false;  ///< the answer says every source answered
  size_t results = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double latency = 0;  ///< virtual seconds to the answer (or to quiescence)
};

/// \brief The three architectures on one network.
struct Race {
  size_t sellers = 0;
  size_t expected = 0;  ///< in-area items with price < 20
  RaceRun mqp, ship, push;
};

/// Runs the MQP, then coord-ship, then coord-push on one fresh
/// net::Simulator holding `sellers` sellers built at seed 500 + `sellers`.
/// With `fail_one`, seller 0 is failed for each run and recovered after.
Race RunRace(size_t sellers, bool fail_one);

/// C2's shape with every seller healthy: every answer complete with the
/// expected count, both coordinators strictly sooner than the MQP, and
/// coord-push strictly fewer bytes than coord-ship. Returns what failed;
/// empty when the shape holds.
std::vector<std::string> HealthyRaceShape(const Race& race);

/// C2's shape with one seller failed: both coordinators answer a partial
/// at their timeout, and the MQP answers a partial instead of being lost.
std::vector<std::string> FailedRaceShape(const Race& race);

}  // namespace mqp::workload
