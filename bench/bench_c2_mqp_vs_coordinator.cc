// C2 — §2's comparison with traditional distributed query processing:
// "mutant query plans trade away pipelining and parallelism for
// robustness, autonomous optimization at each peer and reduced deployment
// costs."
//
// The same selective query runs as (a) a migrating MQP, (b) a coordinator
// that ships raw collections, (c) a coordinator that pushes selections.
// We report bytes, messages and latency, then repeat with a failed source
// to expose the robustness/latency behaviours. The scenario and its shape
// check (workload/coordinator_race.h) also gate tier-1 as
// PaperClaims.C2CoordinatorFasterPushShipsLess; a miss exits non-zero.
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/coordinator_race.h"

using namespace mqp;

namespace {

void Print(const char* arch, size_t sellers, const workload::RaceRun& r,
           size_t expected) {
  bench::Row("%6zu %-12s %8s %8zu/%-6zu %7llu %11llu %9.2fs", sellers, arch,
             r.ok ? (r.complete ? "yes" : "partial") : "LOST", r.results,
             expected, static_cast<unsigned long long>(r.messages),
             static_cast<unsigned long long>(r.bytes), r.latency);
}

void PrintRace(const workload::Race& race) {
  Print("mqp", race.sellers, race.mqp, race.expected);
  Print("coord-ship", race.sellers, race.ship, race.expected);
  Print("coord-push", race.sellers, race.push, race.expected);
}

}  // namespace

int main() {
  bench::Header("C2", "MQP migration vs coordinator-based distributed QP");
  bench::Row("query: select price<20 over [USA, *]; 20 items/seller");

  std::vector<std::string> failed;
  auto note = [&](size_t sellers, const std::vector<std::string>& misses) {
    for (const auto& m : misses) {
      failed.push_back(std::to_string(sellers) + " sellers: " + m);
    }
  };
  bench::Row("\n-- all sources healthy --");
  bench::Row("%6s %-12s %8s %15s %7s %11s %9s", "peers", "arch", "answer",
             "results/expect", "msgs", "bytes", "latency");
  for (size_t sellers : workload::kRaceSellerCounts) {
    const workload::Race race = workload::RunRace(sellers, false);
    PrintRace(race);
    note(sellers, workload::HealthyRaceShape(race));
    bench::Row("%s", "");
  }

  bench::Row("-- one base server failed --");
  bench::Row("%6s %-12s %8s %15s %7s %11s %9s", "peers", "arch", "answer",
             "results/expect", "msgs", "bytes", "latency");
  {
    const workload::Race race =
        workload::RunRace(workload::kRaceFailureSellers, true);
    PrintRace(race);
    note(race.sellers, workload::FailedRaceShape(race));
  }
  bench::Row(
      "\nShape check (paper §2): the coordinator finishes faster (parallel "
      "sub-queries,\npipelined at one site) — the trade MQPs consciously "
      "make; pushing selections\nbeats shipping raw collections on bytes; "
      "the MQP's sequential migration costs\nlatency but needs no omniscient "
      "coordinator. Under failure, the coordinator\nwaits for its timeout "
      "and returns a partial answer; the MQP client retries\nuntil its "
      "deadline and returns the best partial any attempt produced.");
  for (const std::string& f : failed) {
    bench::Row("SHAPE CHECK FAILED: %s", f.c_str());
  }
  return failed.empty() ? 0 : 1;
}
