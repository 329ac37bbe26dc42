// Churn scenarios: dynamic membership over a garage-sale network.
//
// The paper's experiments build a static network once; this driver makes
// membership a first-class workload dimension. On a seeded schedule it
// crashes sellers (fail → recover after a downtime), departs them
// gracefully (tombstone gossip, then gone for good), and joins brand-new
// sellers mid-run — while a client keeps issuing interest-area queries.
// Every choice flows through one mqp::Rng and simulator time, so a given
// seed reproduces the exact same event trace, traffic and final catalogs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.h"
#include "ns/interest.h"
#include "sync/gossip.h"
#include "workload/network_builder.h"

namespace mqp::workload {

/// \brief Knobs for ChurnScenario. All times are simulated seconds.
struct ChurnParams {
  double duration_seconds = 240;       ///< churn-event window
  double event_interval_seconds = 8;   ///< one membership event per interval
  double downtime_seconds = 30;        ///< crash → recover delay
  double query_interval_seconds = 12;  ///< client query period
  /// Gossip keeps running for this long after the last churn event so
  /// catalogs can converge; agents stop ticking at
  /// duration + tail (the simulator then drains).
  double convergence_tail_seconds = 90;

  /// Event mix (remainder of the unit interval = quiet tick).
  double p_fail = 0.5;
  double p_depart = 0.15;
  double p_join = 0.25;

  size_t items_per_joiner = 6;
  ns::InterestArea query_area;  ///< default: (USA,*)
  uint64_t seed = 7;
  sync::SyncOptions sync;  ///< template; per-peer seeds/horizons derived

  /// Run the client's queries through the reliability layer (DESIGN.md
  /// §9: deadline + retry + failover). Off by default so the classic
  /// churn trace — and the sim-vs-threaded equivalence suites pinned to
  /// it — keeps its exact pre-reliability behaviour; benches flip it to
  /// show the before/after query-success story.
  bool reliable_queries = false;
};

/// \brief What happened during a run.
struct ChurnStats {
  size_t fails = 0;
  size_t recovers = 0;
  size_t departs = 0;
  size_t joins = 0;
  size_t queries_submitted = 0;
  size_t queries_returned = 0;  ///< callback fired at all
  size_t queries_complete = 0;  ///< returned with a fully evaluated plan
  size_t queries_partial = 0;   ///< incomplete but carrying items
  size_t queries_timed_out = 0; ///< deadline/retry budget exhausted
  size_t query_retries = 0;     ///< client retry attempts launched
};

/// \brief Drives churn over a built GarageSaleNetwork (not owned; joined
/// peers are appended to its `owned` vector).
class ChurnScenario {
 public:
  ChurnScenario(net::Transport* sim, GarageSaleNetwork* net,
                ChurnParams params);

  /// Enables sync on every peer of the network (client, meta, indexes,
  /// sellers) with per-peer seeds and the derived horizon.
  void EnableSyncEverywhere();

  /// Schedules the full seeded event/query trace without running the
  /// simulator. Callers that step the clock themselves (e.g. a bench
  /// measuring convergence rounds) use this, then sim->Run(t) in steps.
  void Prepare();

  /// Prepare() + run the simulator until it drains (agents stop at the
  /// horizon).
  const ChurnStats& Run();

  const ChurnStats& stats() const { return stats_; }

  /// Simulated end of the churn window (events stop here).
  double churn_end() const { return params_.duration_seconds; }
  /// Simulated time agents stop gossiping.
  double horizon() const {
    return params_.duration_seconds + params_.convergence_tail_seconds;
  }

  /// Peers currently up (not failed, not departed) with sync enabled.
  std::vector<peer::Peer*> LiveSyncedPeers() const;

  /// True when every live synced catalog holds the identical version
  /// vector — the anti-entropy fixpoint.
  bool VectorsConverged() const;

  /// The common version vector as a digest string ("" if diverged);
  /// benches compare fingerprints across same-seed runs.
  std::string VectorFingerprint() const;

 private:
  /// Every peer of the network, in a stable order (client, meta,
  /// indexes, sellers including joiners).
  std::vector<peer::Peer*> AllPeers() const;

  void ScheduleEvents();
  void ScheduleQueries();
  void DoFail(double now);
  void DoDepart(double now);
  void DoJoin(double now);
  sync::SyncOptions OptionsFor(const peer::Peer& peer) const;

  net::Transport* sim_;
  GarageSaleNetwork* net_;
  ChurnParams params_;
  Rng rng_;
  ChurnStats stats_;
  std::vector<peer::Peer*> up_sellers_;      ///< crashable pool
  std::vector<peer::Peer*> crashed_sellers_; ///< failed, recovery pending
  std::vector<peer::Peer*> departed_;
  size_t next_joiner_ = 0;
  bool prepared_ = false;
};

/// \brief One run of the C7 scenario (bench_c7_churn, DESIGN.md §3): a
/// garage-sale network under seeded churn while a client queries one
/// state, measured for gossip convergence after the churn window, gossip
/// bytes against a naive full re-push, and query success.
struct ChurnConvergence {
  ChurnStats stats;
  size_t peers_at_start = 0;
  int convergence_rounds = -1;  ///< gossip rounds after churn; -1: never
  uint64_t gossip_messages = 0;
  uint64_t gossip_bytes = 0;
  /// Every live synced peer re-pushing its entire record set to one
  /// partner each gossip round, on the same schedule.
  uint64_t naive_bytes = 0;
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  uint64_t queries_shed = 0;
  uint64_t mailbox_soft_overflows = 0;
  std::string fingerprint;  ///< the converged vector ("" if diverged)
};

/// Runs the C7 scenario for `sellers` sellers on a fresh net::Simulator.
/// `reliable_queries` routes the client's queries through the reliability
/// layer (ChurnParams::reliable_queries).
ChurnConvergence RunChurnConvergence(uint64_t seed, size_t sellers,
                                     bool reliable_queries);

/// \brief A C7 network size, its seed, and the most gossip rounds its
/// convergence may take (the rounds measured when the claim was gated).
struct ChurnConvergenceSize {
  size_t sellers;
  uint64_t seed;
  int max_rounds;
};
inline constexpr ChurnConvergenceSize kChurnConvergenceSizes[] = {
    {12, 7012, 7}, {24, 7024, 7}, {48, 7048, 11}};

/// The C7 shape for one size, from two same-seed runs with retries off
/// and one with them on: gossip converges within `max_rounds`, ships at
/// most a 2.5th of the naive re-push, repeats bit-identically, and with
/// retries every query completes — at least as many as without. Returns
/// what failed; empty when the shape holds.
std::vector<std::string> ChurnConvergenceShape(const ChurnConvergence& a,
                                               const ChurnConvergence& b,
                                               const ChurnConvergence& retries,
                                               int max_rounds);

}  // namespace mqp::workload
