// C7 — dynamic catalog maintenance under churn (src/sync/).
//
// A garage-sale network runs a seeded churn schedule (crashes with
// recovery, graceful departures, fresh joins — well above 20% of the
// network failing/recovering) while the client keeps querying and every
// peer gossips version-vector digests. We measure:
//   * convergence: rounds of gossip after the churn window until every
//     live catalog holds the identical version vector,
//   * bytes: digest+delta gossip traffic vs. the naive alternative of
//     every peer re-pushing its full catalog state every round,
//   * availability: query success rate while the network churns,
//   * determinism: two runs with the same seed must be bit-identical.
// The scenario and its shape check live in workload/churn.h, shared with
// PaperClaims.C7GossipConvergesUnderChurn; the bench exits non-zero when
// the shape fails.
#include "bench_util.h"

using namespace mqp;

int main() {
  bench::Header("C7", "catalog convergence and query availability under "
                      "churn (gossip/anti-entropy vs full re-registration)");
  std::vector<std::string> failed;
  for (const auto& size : workload::kChurnConvergenceSizes) {
    const size_t sellers = size.sellers;
    const auto a = workload::RunChurnConvergence(size.seed, sellers, false);
    const auto b = workload::RunChurnConvergence(size.seed, sellers, false);
    const auto rel = workload::RunChurnConvergence(size.seed, sellers, true);
    for (const std::string& f :
         workload::ChurnConvergenceShape(a, b, rel, size.max_rounds)) {
      failed.push_back(std::to_string(sellers) + " sellers: " + f);
    }
    const bool identical = a.fingerprint == b.fingerprint &&
                           !a.fingerprint.empty() &&
                           a.total_messages == b.total_messages &&
                           a.total_bytes == b.total_bytes;
    const double fail_frac =
        static_cast<double>(a.stats.fails + a.stats.departs) /
        static_cast<double>(a.peers_at_start);
    bench::Row("%zu sellers (%zu peers): churn events fail=%zu recover=%zu "
               "depart=%zu join=%zu (%.0f%% of peers failed/departed)",
               sellers, a.peers_at_start, a.stats.fails, a.stats.recovers,
               a.stats.departs, a.stats.joins, 100 * fail_frac);
    auto success = [](const workload::ChurnConvergence& r) {
      return r.stats.queries_submitted == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(r.stats.queries_complete) /
                       static_cast<double>(r.stats.queries_submitted);
    };
    bench::Row("  queries (retries OFF): %zu submitted, %zu returned, "
               "%zu complete (%.0f%% success under churn)",
               a.stats.queries_submitted, a.stats.queries_returned,
               a.stats.queries_complete, success(a));
    bench::Row("  queries (retries ON):  %zu submitted, %zu returned, "
               "%zu complete (%.0f%% success), %zu retries, %zu partial, "
               "%zu timed out",
               rel.stats.queries_submitted, rel.stats.queries_returned,
               rel.stats.queries_complete, success(rel),
               rel.stats.query_retries, rel.stats.queries_partial,
               rel.stats.queries_timed_out);
    bench::Row("  convergence: %d gossip round(s) after the churn window",
               a.convergence_rounds);
    bench::Row("  overload: %llu queries shed, %llu mailbox soft "
               "overflows (churn is a fault workload, not a flash crowd "
               "— both should stay 0)",
               static_cast<unsigned long long>(rel.queries_shed),
               static_cast<unsigned long long>(rel.mailbox_soft_overflows));
    bench::Row("  gossip traffic: %llu msgs, %llu bytes; naive full "
               "re-push on the same schedule: %llu bytes (%.1fx more)",
               static_cast<unsigned long long>(a.gossip_messages),
               static_cast<unsigned long long>(a.gossip_bytes),
               static_cast<unsigned long long>(a.naive_bytes),
               a.gossip_bytes == 0
                   ? 0.0
                   : static_cast<double>(a.naive_bytes) /
                         static_cast<double>(a.gossip_bytes));
    bench::Row("  deterministic across two same-seed runs: %s",
               identical ? "yes" : "NO");
    bench::Row("%s", "");
  }
  bench::Row("Shape check: gossip converges within a handful of rounds and "
             "ships far fewer\nbytes than naive full re-registration "
             "(digests are vector-sized; deltas carry\nonly missing "
             "records); runs are bit-identical per seed.");
  for (const std::string& f : failed) {
    bench::Row("SHAPE CHECK FAILED: %s", f.c_str());
  }
  return failed.empty() ? 0 : 1;
}
