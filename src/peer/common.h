// What a peer and its components (QueryClient, TopKCoordinator,
// Admission) share: the options they read live, the outcome a client
// gets back, and the counters with the one path that records them.
#pragma once

#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/counters.h"
#include "engine/operator.h"
#include "net/transport.h"
#include "ns/interest.h"
#include "optimizer/cost.h"
#include "optimizer/policy.h"

namespace mqp::peer {

/// \brief Which §3.2 roles this peer performs (freely composable).
struct PeerRoles {
  bool base = false;        ///< serves named collections of data
  bool index = false;       ///< tracks base servers (with collection detail)
  bool meta_index = false;  ///< tracks servers by interest area only
  bool category = false;    ///< answers hierarchy-structure queries
  bool authoritative = false;  ///< strives to know all servers in its area
};

/// How long a server stays quarantined on the suspicion list after a
/// failed interaction; suspect servers lose routing ties and their
/// binding alternatives are skipped while fresher ones exist.
inline constexpr double kSuspicionTtlSeconds = 60;

/// \brief Client-side query-reliability knobs (DESIGN.md §9). With
/// `enabled` false the peer behaves exactly as before the reliability
/// layer existed — no retries, no failover filtering, no deadline on the
/// wire — except that a nonzero deadline still reaps the pending entry
/// (the state-leak fix stands even when the layer is ablated). Retries
/// back off exponentially (×2, capped at 30 s) with ±20% jitter drawn
/// from a per-peer seeded Rng, so schedules stay deterministic.
struct ReliabilityOptions {
  bool enabled = true;

  /// Per-query deadline budget in seconds from submission (0 = none:
  /// the query may pend forever, the pre-reliability behaviour).
  double query_deadline_seconds = 120;

  /// Base per-attempt timeout before the first retry fires.
  double retry_timeout_seconds = 4;
  /// Retries after the initial attempt (total attempts = 1 + max_retries).
  /// Deep enough that with the backoff ladder the deadline, not this
  /// count, is what normally ends a hopeless query.
  uint32_t max_retries = 8;

  /// Seeds the per-peer jitter stream (combined with the peer id).
  uint64_t seed = 1;
};

/// \brief Overload-protection knobs (DESIGN.md §11). With `enabled` off,
/// the peer accepts every query, never sheds, never aborts an
/// evaluation, and never cancels — the pre-overload reference. The
/// defaults are inert (no service-time model, no row budgets), so a
/// peer that never configures this struct behaves byte-identically to
/// before the layer existed.
struct OverloadOptions {
  bool enabled = true;

  /// Modeled service rate for remote plan processing, in queries per
  /// virtual second. 0 keeps handlers instantaneous in virtual time —
  /// the pre-overload behaviour. When set, each admitted remote plan
  /// occupies this peer for 1/rate seconds and later arrivals queue
  /// behind it (deferred via transport timers), which is what gives
  /// overload a latency consequence on simulated backends. The queue's
  /// projected delay is also what admission control sheds on. Applies
  /// in ablated mode too: it models the peer's capacity, not the
  /// protection.
  double service_rate_qps = 0;

  /// Projected-queueing-delay watermark (seconds) past which
  /// best-effort (priority-0) plans are refused outright. In the
  /// RED-style gray zone past half the watermark they are shed
  /// probabilistically (linearly ramping to certainty at the watermark),
  /// by a seeded coin that is a pure function of (seed, query id,
  /// attempt) — bit-identical across backends, the FaultInjector
  /// pattern. Higher-priority plans (policy priority > 0) are refused
  /// only past four times the watermark.
  double shed_delay_seconds = 2.0;

  /// Client-side admission: refuse SubmitQuery outright (outcome
  /// `shed`, complete=false) while this many queries are already
  /// pending here; higher-priority submissions may overshoot to four
  /// times the cap. 0 = unlimited.
  size_t max_pending_queries = 0;

  /// Deadline → row-allowance conversion for the per-query engine
  /// budget: an evaluation may produce (remaining deadline seconds ×
  /// this rate) rows before it aborts with a partial. 0 disables row
  /// budgets (the default).
  uint64_t budget_rows_per_second = 0;
  /// Allowance floor so an almost-expired query still makes progress —
  /// also the whole allowance for post-deadline salvage evaluation.
  uint64_t min_budget_rows = 256;

  /// Seeds the shed-coin stream (combined with the query id + attempt).
  uint64_t seed = 1;
};

/// Higher-priority plans (policy priority > 0) are refused only past this
/// multiple of the delay watermark (server side) or of the pending cap
/// (client side).
inline constexpr double kHighPriorityCeiling = 4.0;

/// \brief Per-peer configuration.
struct PeerOptions {
  std::string name;          ///< human-readable label (for traces)
  ns::InterestArea interest; ///< the peer's interest area
  PeerRoles roles;

  optimizer::PolicyConfig policy;  ///< deferment policy (Figure 2)
  optimizer::CostParams cost;

  bool record_provenance = true;   ///< §5.1
  bool retain_original = false;    ///< carry the original plan in the MQP
  bool enable_select_pushdown = true;
  bool enable_consolidation = true;
  bool enable_absorption = true;

  /// Routing loop guard. MQPs visit base servers sequentially (the
  /// pipelining trade of §2), so this must exceed the number of servers a
  /// wide query touches.
  int max_hops = 256;

  /// §3.4/§5.1 catalog caching: harvest (area → index server) entries
  /// from resolver hints seen in passing MQPs, and — when retain_original
  /// is set — from the provenance of returned results.
  bool cache_from_plans = true;

  /// Item fields carrying the namespace coordinates, in dimension order
  /// (e.g. {"location", "category"}). Used to filter collections broader
  /// than a requested area down to the requested portion.
  std::vector<std::string> dimension_fields;

  /// Numeric fields to histogram when annotating local collections (§5.1);
  /// downstream cost models use them for selectivity estimation.
  std::vector<std::string> histogram_fields;

  /// Test hook for §5.1 spoofing: URNs whose text contains this substring
  /// are bound to the empty set with normal-looking provenance.
  std::string spoof_urn_substring;

  /// Client-side reliability: deadlines, retries, failover, partials.
  ReliabilityOptions reliability;

  /// Overload protection: admission control, per-query resource
  /// budgets, priority shedding, cooperative cancellation (DESIGN.md
  /// §11).
  OverloadOptions overload;
};

/// \brief A bounded set of recently seen ids. Holds at most `cap` ids
/// and evicts the oldest insertion first; re-inserting a held id does
/// not refresh its age.
class RecentIds {
 public:
  explicit RecentIds(size_t cap) : cap_(cap) {}

  /// Adds `id`; true if it was not already held.
  bool Insert(const std::string& id) {
    if (!set_.insert(id).second) return false;
    order_.push_back(id);
    if (order_.size() > cap_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  bool Contains(const std::string& id) const { return set_.count(id) > 0; }

 private:
  size_t cap_;
  std::deque<std::string> order_;
  std::set<std::string> set_;
};

/// \brief What a client gets back for a submitted query.
struct QueryOutcome {
  std::string query_id;
  bool complete = false;        ///< plan fully evaluated
  algebra::ItemSet items;
  algebra::Provenance provenance;
  double submitted_at = 0;
  double completed_at = 0;
  size_t result_bytes = 0;      ///< wire size of the returning MQP
  algebra::Plan final_plan;     ///< full returning plan (for verification)
  /// Attempts launched for this query (1 = no retries needed).
  uint32_t attempts = 1;
  /// True when the deadline/retry budget ran out: `items` then holds the
  /// best *partial* result any attempt produced (possibly empty), with
  /// provenance marking what went unanswered — degradation, not silence.
  bool timed_out = false;
  /// True when client-side admission control refused the query at
  /// submission (DESIGN.md §11): nothing was sent, `items` is empty.
  bool shed = false;
};

/// \brief Per-peer counters for tests and benches: the peer-only and
/// peer-reported groups of the counter table (common/counters.h). The
/// peer-reported members are inherited; CounterSink::Count records them
/// here and in the transport's NetStats at once.
struct PeerCounters : PeerReportedCounters {
  MQP_PEER_ONLY_COUNTERS(MQP_COUNTER_FIELD)
};

/// \brief A peer's counters and the one path that records them. The peer
/// and its components share one sink, so every peer-reported counter
/// lands once in `values` and once in the calling thread's transport
/// stats shard.
class CounterSink {
 public:
  explicit CounterSink(net::Transport* net) : net_(net) {}

  /// Records a peer-reported counter. Pass `&PeerCounters::name`; a
  /// substrate or peer-only counter does not compile.
  void Count(uint64_t PeerReportedCounters::*counter, uint64_t n = 1) {
    values.*counter += n;
    net_->stats().*counter += n;
  }
  /// The same for a batch of deltas (engine, resolve and codec tallies).
  void Count(const PeerReportedCounters& deltas) {
    values.Add(deltas);
    net_->stats().Add(deltas);
  }

  PeerCounters values;  ///< peer-only counters are written here directly

 private:
  friend class EngineTally;
  net::Transport* net_;
  int engine_tally_depth_ = 0;  // EngineTally re-entrancy guard
};

/// \brief Reports engine::Stats() deltas through the sink on scope exit.
/// Re-entrant per sink: only the outermost scope records, so a result
/// callback that submits a fresh query from inside the Figure-2 loop, or
/// a top-k merge that resumes it, cannot double-count.
class EngineTally {
 public:
  explicit EngineTally(CounterSink* sink);
  ~EngineTally();
  EngineTally(const EngineTally&) = delete;
  EngineTally& operator=(const EngineTally&) = delete;

 private:
  CounterSink* sink_;
  engine::EngineStats before_;
};

/// Serializes `plan` via the wire-layer cache, counting the work.
net::Payload PlanBody(const algebra::Plan& plan, CounterSink* counts);

/// Re-enters the peer's Figure-2 loop with a plan, its wire hop count and
/// its envelope's deadline and attempt: the one way a component hands a
/// plan back to its peer.
using Resume = std::function<void(algebra::Plan plan, uint32_t hops,
                                  double deadline, uint32_t attempt)>;

}  // namespace mqp::peer
