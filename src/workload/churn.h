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
#include <map>
#include <string>
#include <utility>
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

/// \brief One seller's membership history (ChurnScenario's log), initial
/// sellers and joiners alike.
struct SellerHistory {
  std::string address;
  algebra::ItemSet items;  ///< what the seller holds, all of it
  /// The [from, to) intervals in which the seller was up and registered;
  /// `to` is +infinity while it still is. Initial sellers registered
  /// before the scenario began, so their first interval opens at
  /// -infinity.
  std::vector<std::pair<double, double>> up;

  /// Up and registered throughout [from, to].
  bool UpThroughout(double from, double to) const;
  /// Up at some time in [from, to].
  bool UpDuring(double from, double to) const;
};

/// \brief One scenario query as the client saw it.
struct QueryRecord {
  double submitted = 0;  ///< t0
  double answered = -1;  ///< t1; -1 while no outcome has arrived
  bool complete = false;
  /// The answer's item ids (ChurnScenario::ItemId), ascending.
  std::vector<std::string> items;
  /// For an incomplete answer: the provenance names what went
  /// unanswered (a dead-end or deadline marker listing the leaves, or a
  /// shed refusal). Meaningless when nothing came back at all.
  bool names_unanswered = false;
  bool returned_plan = false;  ///< some attempt came back with a plan
};

/// \brief Drives churn over a built GarageSaleNetwork (not owned; joined
/// peers are appended to its `owned` vector).
///
/// It also keeps the log the churn answer oracle reads (CheckAnswers):
/// every seller's items and up intervals, every scenario query's submit
/// and answer times and outcome, and every expiry a peer declared of an
/// origin while both had been up for the whole TTL before (a false
/// expiry).
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

  // --- the churn answer oracle ------------------------------------------------

  /// The convergence bound C of the oracle: the most gossip rounds any
  /// kChurnConvergenceSizes network may take, times the gossip interval.
  double ConvergenceBoundSeconds() const;

  /// Checks every answered scenario query against the membership log.
  /// For a query submitted at t0 and answered at t1, with C the
  /// convergence bound and TTL the declared entry TTL:
  ///   L = the in-area items of sellers up and registered throughout
  ///       [t0 - C, t1] (the certain answers); heartbeats stop with the
  ///       churn window, so registrations lapse after it by design and
  ///       L is empty for an answer given later,
  ///   U = the in-area items of sellers up at any time in
  ///       [t0 - TTL, t1] (the possible answers).
  /// A complete answer must satisfy L ⊆ answer ⊆ U; an incomplete one
  /// answer ⊆ U, and when a plan came back its provenance must name
  /// what went unanswered. Returns one line per violation; empty when
  /// every answer is within bounds.
  std::vector<std::string> CheckAnswers() const;

  const std::vector<SellerHistory>& sellers_log() const { return sellers_; }
  const std::vector<QueryRecord>& queries_log() const { return queries_; }
  /// Expiries declared by a peer of an origin, both of which had been up
  /// for the whole TTL before.
  size_t false_expiries() const { return false_expiries_; }
  /// Every expiry a live peer declared.
  size_t expiries() const { return expiries_; }

  /// The identity the oracle compares items by: the item's fields.
  static std::string ItemId(const algebra::Item& item);

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
  /// Enables sync on `peer` and hooks its expiries into the log.
  void EnableSync(peer::Peer* peer);
  void OnExpire(const peer::Peer& observer, const std::string& origin);
  /// Seller `address` was up and registered throughout [from, to]; any
  /// other peer always was.
  bool UpThroughout(const std::string& address, double from,
                    double to) const;
  /// The log entry of seller `peer`.
  SellerHistory& HistoryOf(const peer::Peer* peer);

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
  // The oracle's log. Churn events, ticks and expiries run as timers,
  // and query outcomes on the client, all serialized by the transport.
  std::vector<SellerHistory> sellers_;  ///< initial sellers, then joiners
  std::map<std::string, size_t> seller_index_;  ///< address → sellers_
  std::vector<QueryRecord> queries_;
  size_t false_expiries_ = 0;
  size_t expiries_ = 0;
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
