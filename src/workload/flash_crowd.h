// Flash-crowd scenario: overload protection under a traffic spike.
//
// The paper's experiments assume a polite client; this driver models the
// opposite — a flash crowd aiming a steady stream of interest-area
// queries at one hot region of the garage-sale network, at a multiple of
// what the service tier can absorb. Every peer runs the DESIGN.md §11
// virtual service-time model (service_rate_qps), so queueing delay,
// admission control, priority shedding, per-query evaluation budgets and
// cooperative cancellation all engage exactly as they would on loaded
// hardware — but in deterministic virtual time: a given seed reproduces
// the identical submission schedule, shed/abort decisions and outcome
// trace on the simulator and the threaded runtime alike.
//
// The interesting sweep axis is `load_multiplier` (offered load as a
// multiple of `capacity_qps`) crossed with `protection` on/off: with
// shedding enabled the backlog stays bounded, so admitted queries — and
// in particular the high-priority slice — keep completing inside their
// deadlines at 10x; ablated, the queue grows without bound and goodput
// collapses to the few queries submitted before the backlog crossed the
// deadline. bench_c15_overload turns that contrast into a CI shape
// check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"
#include "ns/interest.h"
#include "peer/peer.h"
#include "workload/network_builder.h"

namespace mqp::workload {

/// \brief Knobs for FlashCrowdScenario. All times are simulated seconds.
struct FlashCrowdParams {
  size_t num_sellers = 12;
  size_t items_per_seller = 5;
  uint64_t seed = 15;

  /// Per-peer virtual service rate (OverloadOptions::service_rate_qps),
  /// applied fleet-wide. This models the hardware and stays on even when
  /// `protection` is false — ablation removes the defenses, not the load.
  double service_rate_qps = 10;

  /// Calibrated end-to-end capacity of the topology under this service
  /// rate; offered load is `capacity_qps * load_multiplier`. The hot
  /// path funnels every query through the top meta-index and the hot
  /// state's peers, so capacity sits just under the per-peer rate — the
  /// bottleneck stage — leaving 1x comfortably stable.
  double capacity_qps = 8;
  double load_multiplier = 1;

  double duration_seconds = 60;   ///< submission window
  double drain_tail_seconds = 30; ///< extra time for deadlines to reap

  /// Fraction of queries submitted with PlanPolicy::priority = 1; the
  /// rest are best-effort priority 0. Kept small so the high-priority
  /// slice stays well under capacity even at 10x offered load — the
  /// regime where priority shedding is supposed to save it.
  double high_priority_fraction = 0.05;

  double query_deadline_seconds = 10;
  uint32_t max_retries = 1;

  /// Overload defenses on (admission, shedding, budgets, cancellation).
  /// Applied per-peer via OverloadOptions::enabled, so two scenarios with
  /// opposite settings can coexist in one process.
  bool protection = true;

  /// Template for the fleet's overload knobs (shed watermark, budgets,
  /// admission cap...). `service_rate_qps`, `enabled` and `seed` are
  /// overwritten from the fields above.
  peer::OverloadOptions overload;

  /// The flash crowd's target. Empty = "(USA.OR,*)".
  ns::InterestArea hot_area;
};

/// \brief What happened during a run. The `hp_` twins count the
/// high-priority slice (also included in the overall numbers).
struct FlashCrowdStats {
  size_t submitted = 0;
  size_t hp_submitted = 0;
  size_t complete = 0;      ///< callback fired with a fully evaluated plan
  size_t hp_complete = 0;
  size_t shed = 0;          ///< refused by client-side admission control
  size_t hp_shed = 0;
  size_t timed_out = 0;     ///< deadline/retry budget exhausted
  size_t hp_timed_out = 0;
  size_t partial = 0;       ///< timed out but carrying best-effort items

  /// Completion latencies (completed_at - submitted_at) of complete
  /// queries, in callback order.
  std::vector<double> latencies;
  std::vector<double> hp_latencies;

  /// One character per submitted query, in submission order: the query's
  /// fate (c=complete, s=shed, p=timed out with partial items, t=timed
  /// out empty, x=other, ?=callback never fired), uppercased for the
  /// high-priority slice. Same seed + same backend behaviour ⇒ identical
  /// trace; the determinism suite compares it across simulator and
  /// threaded-runtime runs byte for byte.
  std::string decision_trace;

  // NetStats snapshot after the run (fleet-wide totals).
  uint64_t queries_shed = 0;
  uint64_t budget_aborts = 0;
  uint64_t cancels_sent = 0;
  uint64_t cancelled_sessions_reaped = 0;

  /// Pending-query entries / top-k merge sessions still live anywhere in
  /// the fleet after the drain tail — both must be zero; nonzero means
  /// cancellation/reaping leaked state.
  size_t leaked_pending = 0;
  size_t leaked_sessions = 0;

  double goodput_qps(double window_seconds) const {
    return window_seconds > 0 ? static_cast<double>(complete) / window_seconds
                              : 0;
  }
  double hp_completion_pct() const {
    return hp_submitted > 0 ? 100.0 * static_cast<double>(hp_complete) /
                                  static_cast<double>(hp_submitted)
                            : 100.0;
  }
};

/// \brief Builds its own garage-sale network on `sim` and drives the
/// seeded flash crowd against it.
class FlashCrowdScenario {
 public:
  FlashCrowdScenario(net::Transport* sim, FlashCrowdParams params);

  /// Builds the network, applies the overload/reliability options
  /// fleet-wide, and schedules the full seeded submission trace without
  /// running the transport.
  void Prepare();

  /// Prepare() + run the transport past the horizon + collect stats.
  const FlashCrowdStats& Run();

  const FlashCrowdStats& stats() const { return stats_; }

  double offered_qps() const {
    return params_.capacity_qps * params_.load_multiplier;
  }
  /// Simulated time by which every submitted query has been reaped (the
  /// deadline machinery guarantees a callback well inside the tail).
  double horizon() const {
    return params_.duration_seconds + params_.drain_tail_seconds;
  }

  GarageSaleNetwork& net() { return net_; }
  const GarageSaleNetwork& net() const { return net_; }

 private:
  void Submit(size_t index, bool high_priority);
  void Record(size_t index, const peer::QueryOutcome& outcome);
  /// Folds the per-query marks and the transport's NetStats into stats_.
  void Collect();

  net::Transport* sim_;
  FlashCrowdParams params_;
  Rng rng_;
  GarageSaleNetwork net_;
  FlashCrowdStats stats_;
  std::vector<char> marks_;     ///< per-query fate, '?' until recorded
  std::vector<bool> hp_flags_;  ///< per-query priority slice
  bool prepared_ = false;
};

}  // namespace mqp::workload
