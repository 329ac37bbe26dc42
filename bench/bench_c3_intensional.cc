// C3 — §4 Examples 1-3: what intensional statements buy.
//
// Scenario: seller S publishes Portland merchandise; server R replicates
// S (base[Portland,*]@R = base[Portland,*]@S, Example 1). The index server
// knows both. With statements enabled the binding collapses to one server
// ("the MQP could be routed to either R or S, but it need not go to
// both"); without them the union visits both and ships the data twice.
// The scenario and its shape check live in workload/replicas.h, shared
// with PaperClaims.C3StatementsKeepOneBaseVisit; the bench exits non-zero
// when the shape fails.
#include "bench_util.h"

using namespace mqp;

int main() {
  bench::Header("C3", "intensional statements: redundancy elimination "
                      "(Examples 1-3)");
  bench::Row("scenario: S holds 40 Portland CDs; R1..Rk replicate S "
             "exactly; query the area");
  bench::Row("%9s %11s %9s %12s %11s %9s", "replicas", "statements",
             "results", "base-visits", "bytes", "latency");
  std::vector<std::string> failed;
  for (size_t replicas : workload::kReplicaCounts) {
    const auto without = workload::RunReplicaQuery(false, replicas);
    const auto with = workload::RunReplicaQuery(true, replicas);
    for (const workload::ReplicaQuery* r : {&without, &with}) {
      const char* stmts = r == &with ? "on" : "off";
      if (!r->ok) {
        bench::Row("%9zu %11s  QUERY DID NOT RETURN", replicas, stmts);
        continue;
      }
      bench::Row("%9zu %11s %9zu %12zu %11llu %8.2fs", replicas, stmts,
                 r->results, r->base_visits,
                 static_cast<unsigned long long>(r->bytes), r->latency);
    }
    for (const std::string& f :
         workload::ReplicaStatementsShape(with, without, replicas)) {
      failed.push_back(std::to_string(replicas) + " replica(s): " + f);
    }
  }
  bench::Row(
      "\nShape check (paper §4.2 Example 1): without statements every "
      "replica is visited\nand the result multiplies (duplicates); with "
      "statements the binding collapses to\na single server — one visit, "
      "one copy of the data, lower latency and bytes.");
  for (const std::string& f : failed) {
    bench::Row("SHAPE CHECK FAILED: %s", f.c_str());
  }
  return failed.empty() ? 0 : 1;
}
