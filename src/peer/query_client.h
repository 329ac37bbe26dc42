// Client reliability (DESIGN.md §9): the queries a peer submitted, their
// deadlines, retries, failover and partial outcomes, and the cancel
// fan-out when one finishes (§11). Confined to its peer like the rest of
// the peer's state: the peer hands it returned plans, and it hands each
// attempt's plan back through the peer's Figure-2 loop.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "peer/common.h"

namespace mqp::peer {

class QueryClient {
 public:
  using Callback = std::function<void(const QueryOutcome&)>;

  /// `options` are the peer's, read live; `resume` runs an attempt's plan
  /// through the peer's Figure-2 loop.
  QueryClient(net::Transport* net, net::PeerId self,
              const PeerOptions& options, CounterSink* counts, Resume resume);

  /// Submits `plan` as query `query_id`, or refuses it at once (outcome
  /// `shed`) while the pending cap is reached. The plan's display target
  /// becomes this peer; processing starts at the current virtual time.
  void Submit(const std::string& query_id, algebra::Plan plan, Callback cb);

  /// True while a result for `query_id` is awaited. A late duplicate for
  /// a query that already finished is counted instead.
  bool Awaits(const std::string& query_id);

  /// A plan came back for an awaited query: finish it, or with
  /// reliability on, keep the best partial and retry or give up.
  void OnResult(algebra::Plan plan, size_t wire_bytes);

  /// The servers `query_id`'s attempts were sent to (the cancel fan-out
  /// targets); null when the query is not pending here.
  std::set<std::string>* Contacted(const std::string& query_id);

  /// Quarantines `server` for kSuspicionTtlSeconds (reliability only).
  void Suspect(const std::string& server);
  /// True while `server` is quarantined; an expired entry is forgiven.
  bool IsSuspect(const std::string& server);

  size_t pending() const { return pending_.size(); }

  /// At quiescence every query with a timer (reliability on, or a
  /// deadline) has finished; returns one line per query still pending.
  std::vector<std::string> CheckInvariants() const;

 private:
  struct Pending {
    Callback callback;
    double submitted_at = 0;
    double deadline = 0;    ///< absolute; 0 = none
    uint32_t attempt = 0;   ///< attempts launched - 1
    uint64_t generation = 0;  ///< bumps on every retry/result; stale timers no-op
    /// Retained for retries (reliability only; null otherwise).
    std::shared_ptr<const algebra::Plan> original;
    /// Best incomplete outcome any attempt returned (most items wins).
    std::unique_ptr<QueryOutcome> best_partial;
    /// First-hop servers each attempt was forwarded to — the cancel
    /// fan-out targets (DESIGN.md §11), joined with the provenance of
    /// the best partial at send time.
    std::set<std::string> contacted;
  };
  using PendingMap = std::map<std::string, Pending>;

  const std::string& address() const { return net_->Address(self_); }
  double Backoff(uint32_t attempt);
  bool CanRetry(const Pending& p) const;
  void ArmTimer(const std::string& query_id, const Pending& p, double when);
  /// One backoff step from now, capped at the deadline; the last allowed
  /// attempt's timer arms at the deadline.
  void ArmAttemptTimer(const std::string& query_id, const Pending& p);
  void OnTimer(const std::string& query_id, uint64_t generation);
  void StartAttempt(PendingMap::iterator it);
  void GiveUp(PendingMap::iterator it);
  QueryOutcome Outcome(algebra::Plan plan, const Pending& p,
                       size_t wire_bytes) const;
  /// Cancels the query's remaining work when `cancel`, reaps the entry,
  /// then delivers `outcome`.
  void Finish(PendingMap::iterator it, const QueryOutcome& outcome,
              bool cancel);

  net::Transport* net_;
  net::PeerId self_;
  const PeerOptions& options_;
  CounterSink* counts_;
  Resume resume_;
  PendingMap pending_;
  /// Recently finished query ids: late duplicate results for them are
  /// counted, not re-delivered.
  RecentIds completed_{128};
  /// Suspicion list: server address → quarantine expiry time.
  std::map<std::string, double> suspects_;
  mqp::Rng rng_;
};

}  // namespace mqp::peer
