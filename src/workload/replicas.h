// The C3 scenario (paper §4.2 Example 1), shared by bench_c3_intensional
// and PaperClaims.C3StatementsKeepOneBaseVisit: seller S publishes
// Portland CDs, k servers replicate S exactly and each registers the
// statement base[Portland,CDs]@R = base[Portland,CDs]@S, and a client
// queries the area through the one index server that knows them all.
// With statements the binding collapses to one server ("the MQP could be
// routed to either R or S, but it need not go to both"); without them
// the union visits every holder and ships the data k+1 times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mqp::workload {

inline constexpr size_t kReplicaItems = 40;            ///< items S holds
inline constexpr size_t kReplicaCounts[] = {1, 2, 4};  ///< C3's sweep

/// \brief One C3 query: what came back and what it cost.
struct ReplicaQuery {
  bool ok = false;         ///< the query returned
  size_t results = 0;      ///< items in the answer
  size_t base_visits = 0;  ///< holders (S and replicas) in the provenance
  uint64_t bytes = 0;      ///< bytes on the wire for the query
  double latency = 0;      ///< virtual seconds from submission to answer
};

/// Runs C3 with `replicas` copies of S on a fresh net::Simulator, S's
/// items drawn at seed 300 + `replicas`. `with_statements` sets the index
/// catalog's §4 switch (Catalog::set_use_statements); the replicas
/// register their statements either way.
ReplicaQuery RunReplicaQuery(bool with_statements, size_t replicas);

/// C3's shape at one replica count: with statements, one base visit and
/// kReplicaItems results; without, replicas + 1 visits and as many copies
/// of the items; statements ship strictly fewer bytes and answer sooner.
/// Returns what failed; empty when the shape holds.
std::vector<std::string> ReplicaStatementsShape(const ReplicaQuery& with,
                                                const ReplicaQuery& without,
                                                size_t replicas);

}  // namespace mqp::workload
