#include "peer/query_client.h"

#include <algorithm>
#include <utility>

#include "algebra/walk.h"
#include "wire/envelope.h"

namespace mqp::peer {

using algebra::OpType;
using algebra::Plan;
using algebra::PlanNode;
using algebra::PlanNodePtr;
using algebra::ProvenanceAction;

namespace {

// Retry backoff (DESIGN.md §9): each retry doubles the per-attempt
// timeout up to a 30-s cap, then scales it by a ±20% jitter draw.
constexpr double kBackoffFactor = 2.0;
constexpr double kMaxBackoffSeconds = 30;
constexpr double kRetryJitter = 0.2;

}  // namespace

QueryClient::QueryClient(net::Transport* net, net::PeerId self,
                         const PeerOptions& options, CounterSink* counts,
                         Resume resume)
    : net_(net),
      self_(self),
      options_(options),
      counts_(counts),
      resume_(std::move(resume)),
      // Per-peer jitter stream: the configured seed spread by peer id, so
      // a fleet sharing one ReliabilityOptions still staggers its retries.
      rng_(options.reliability.seed * 1000003ULL + self + 1) {}

void QueryClient::Submit(const std::string& query_id, Plan plan,
                         Callback cb) {
  const OverloadOptions& ov = options_.overload;
  const double now = net_->now();
  if (ov.enabled && ov.max_pending_queries > 0) {
    // Client-side admission (DESIGN.md §11): a bounded pending budget.
    // Priority-0 submissions are refused at the watermark; higher
    // priorities may overshoot up to the ceiling before they too are
    // refused. Nothing is sent — the caller hears `shed` synchronously
    // and can retry later or degrade.
    size_t limit = ov.max_pending_queries;
    if (plan.policy().priority > 0) {
      limit = std::max<size_t>(
          limit, static_cast<size_t>(static_cast<double>(limit) *
                                     kHighPriorityCeiling));
    }
    if (pending_.size() >= limit) {
      counts_->Count(&PeerCounters::queries_shed);
      QueryOutcome outcome;
      outcome.query_id = query_id;
      outcome.shed = true;
      outcome.submitted_at = now;
      outcome.completed_at = now;
      if (cb) cb(outcome);
      return;
    }
  }
  plan.set_query_id(query_id);
  plan.set_submitted_at(now);
  // Force the display target to this peer.
  PlanNodePtr body = plan.root();
  if (body != nullptr && body->type() == OpType::kDisplay) {
    body = body->child(0);
  }
  plan.set_root(PlanNode::Display(address(), body));
  if (options_.retain_original) plan.SnapshotOriginal();
  if (options_.record_provenance) {
    plan.provenance().Add(
        {address(), now, ProvenanceAction::kForwarded, "submitted", 0});
  }
  const ReliabilityOptions& rel = options_.reliability;
  Pending& p = pending_[query_id];
  p.callback = std::move(cb);
  p.submitted_at = now;
  if (rel.query_deadline_seconds > 0) {
    p.deadline = now + rel.query_deadline_seconds;
  }
  if (rel.enabled) {
    // Retain the exact submitted plan (target set, provenance seeded):
    // every retry restarts from these bytes, not from whatever mutated
    // copy is stranded somewhere in the network.
    p.original = std::make_shared<const Plan>(plan.Clone());
    ArmAttemptTimer(query_id, p);
  } else if (p.deadline > 0) {
    // Reliability ablated: no retries and no deadline on the wire, but
    // the pending entry is still reaped (the state-leak fix stands).
    ArmTimer(query_id, p, p.deadline);
  }
  const double wire_deadline = rel.enabled ? p.deadline : 0;
  net_->ScheduleFor(self_, now,
                    [this, plan = std::move(plan), wire_deadline]() mutable {
                      resume_(std::move(plan), /*hops=*/0, wire_deadline,
                              /*attempt=*/0);
                    });
}

bool QueryClient::Awaits(const std::string& query_id) {
  if (pending_.count(query_id) > 0) return true;
  // Unknown — or a late duplicate for a query that already finished (a
  // retry raced the original, or the fault plan duplicated the result):
  // count the suppression, deliver nothing twice.
  if (completed_.Contains(query_id)) {
    counts_->Count(&PeerCounters::duplicates_suppressed);
  }
  return false;
}

void QueryClient::OnResult(Plan plan, size_t wire_bytes) {
  auto it = pending_.find(plan.query_id());
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (plan.IsFullyEvaluated() || !options_.reliability.enabled) {
    // A retried query may have superseded attempts still live in the
    // network; reap them. Fault-free single-attempt traffic skips this,
    // keeping its wire traces byte-identical.
    const bool cancel = options_.overload.enabled && p.attempt > 0;
    Finish(it, Outcome(std::move(plan), p, wire_bytes), cancel);
    return;
  }
  // An attempt came back short. Quarantine the servers that went
  // unanswered, keep the best partial seen so far, and retry after a
  // backoff (the same pacing as a timeout: an immediate relaunch would
  // burn the retry budget before a crashed server restarts) — unless the
  // deadline or retry budget is spent, in which case the best partial
  // goes out now. The leaves still unresolved name exactly the servers
  // whose answers never arrived — the confirmed casualties, as opposed to
  // every server the route touched.
  const std::string& self = address();
  if (plan.root() != nullptr) {
    algebra::ForEachNode(plan.root().get(), [&](const PlanNode* n) {
      if (n->type() == OpType::kUrl && n->url() != self) {
        Suspect(n->url());
      } else if (n->type() == OpType::kUrn && !n->urn_hint().empty() &&
                 n->urn_hint() != self) {
        Suspect(n->urn_hint());
      }
    });
  }
  // Shed markers are authoritative refusals (DESIGN.md §11): quarantine
  // the shedding servers so the retry binds and routes around the hot
  // spot instead of queueing behind it again.
  for (const auto& e : plan.provenance().entries()) {
    if (e.action == ProvenanceAction::kShed) Suspect(e.server);
  }
  QueryOutcome partial = Outcome(std::move(plan), p, wire_bytes);
  if (p.best_partial == nullptr ||
      partial.items.size() > p.best_partial->items.size()) {
    p.best_partial = std::make_unique<QueryOutcome>(std::move(partial));
  }
  if (CanRetry(p)) {
    ++p.generation;  // stale timers from this attempt no-op
    ArmAttemptTimer(it->first, p);
    return;
  }
  GiveUp(it);
}

QueryOutcome QueryClient::Outcome(Plan plan, const Pending& p,
                                  size_t wire_bytes) const {
  QueryOutcome outcome;
  outcome.query_id = plan.query_id();
  outcome.complete = plan.IsFullyEvaluated();
  if (outcome.complete) {
    auto items = plan.ResultItems();
    if (items.ok()) outcome.items = std::move(items).value();
  } else if (options_.reliability.enabled) {
    outcome.items = plan.PartialItems();  // a candidate best partial
  }
  outcome.provenance = plan.provenance();
  outcome.submitted_at = p.submitted_at;
  outcome.completed_at = net_->now();
  outcome.result_bytes = wire_bytes;
  outcome.attempts = p.attempt + 1;
  outcome.final_plan = std::move(plan);
  return outcome;
}

std::set<std::string>* QueryClient::Contacted(const std::string& query_id) {
  auto it = pending_.find(query_id);
  return it == pending_.end() ? nullptr : &it->second.contacted;
}

double QueryClient::Backoff(uint32_t attempt) {
  double base = options_.reliability.retry_timeout_seconds;
  for (uint32_t i = 0; i < attempt; ++i) {
    base *= kBackoffFactor;
    if (base >= kMaxBackoffSeconds) break;
  }
  if (base > kMaxBackoffSeconds) base = kMaxBackoffSeconds;
  const double u = rng_.NextDouble();
  return base * (1.0 + kRetryJitter * (2.0 * u - 1.0));
}

void QueryClient::Suspect(const std::string& server) {
  if (!options_.reliability.enabled) return;
  if (server.empty() || server == address()) return;
  suspects_[server] = net_->now() + kSuspicionTtlSeconds;
}

bool QueryClient::IsSuspect(const std::string& server) {
  auto it = suspects_.find(server);
  if (it == suspects_.end()) return false;
  if (it->second <= net_->now()) {
    suspects_.erase(it);  // quarantine over: forgive lazily
    return false;
  }
  return true;
}

bool QueryClient::CanRetry(const Pending& p) const {
  const ReliabilityOptions& rel = options_.reliability;
  return rel.enabled && p.original != nullptr &&
         p.attempt < rel.max_retries &&
         (p.deadline == 0 || net_->now() < p.deadline);
}

void QueryClient::ArmTimer(const std::string& query_id, const Pending& p,
                           double when) {
  net_->ScheduleFor(self_, when, [this, qid = query_id, gen = p.generation] {
    OnTimer(qid, gen);
  });
}

void QueryClient::ArmAttemptTimer(const std::string& query_id,
                                  const Pending& p) {
  double when = net_->now() + Backoff(p.attempt);
  // The last allowed attempt gets the whole remaining budget: giving up
  // one backoff step after launching it would discard a result that is
  // still legitimately in flight.
  if (p.deadline > 0 &&
      (p.attempt >= options_.reliability.max_retries || when > p.deadline)) {
    when = p.deadline;
  }
  ArmTimer(query_id, p, when);
}

void QueryClient::OnTimer(const std::string& query_id, uint64_t generation) {
  auto it = pending_.find(query_id);
  // Already finished, or superseded by a newer result or retry.
  if (it == pending_.end() || it->second.generation != generation) return;
  if (CanRetry(it->second)) {
    StartAttempt(it);
  } else {
    GiveUp(it);
  }
}

void QueryClient::StartAttempt(PendingMap::iterator it) {
  Pending& p = it->second;
  const uint32_t attempt = ++p.attempt;
  ++p.generation;
  counts_->Count(&PeerCounters::query_retries);
  Plan plan = p.original->Clone();
  const double now = net_->now();
  if (options_.record_provenance) {
    plan.provenance().Add({address(), now, ProvenanceAction::kForwarded,
                           "retry " + std::to_string(attempt), 0});
  }
  // Stamp the current (unexpired) suspicion list into the plan so every
  // hop of this attempt resolves and routes around the casualties the
  // previous attempts discovered.
  auto& avoid = plan.policy().route_avoid;
  avoid.clear();
  for (auto sit = suspects_.begin(); sit != suspects_.end();) {
    if (sit->second <= now) {
      sit = suspects_.erase(sit);
    } else {
      avoid.push_back(sit->first);  // map order: deterministic stamp
      ++sit;
    }
  }
  ArmAttemptTimer(it->first, p);
  // Last: processing may complete the query synchronously (local data),
  // erasing the pending entry `p` points into.
  resume_(std::move(plan), /*hops=*/0, p.deadline, attempt);
}

void QueryClient::GiveUp(PendingMap::iterator it) {
  Pending& p = it->second;
  counts_->Count(&PeerCounters::query_timeouts);
  QueryOutcome outcome;
  if (p.best_partial != nullptr) {
    outcome = std::move(*p.best_partial);
  } else {
    outcome.query_id = it->first;
    outcome.submitted_at = p.submitted_at;
  }
  outcome.complete = false;
  outcome.timed_out = true;
  outcome.attempts = p.attempt + 1;
  outcome.completed_at = net_->now();
  if (!outcome.items.empty()) {
    counts_->Count(&PeerCounters::partials_delivered);
  }
  // Giving up abandons every in-flight attempt: tell the servers that
  // hold its work to stop (DESIGN.md §11).
  Finish(it, outcome, options_.overload.enabled);
}

void QueryClient::Finish(PendingMap::iterator it, const QueryOutcome& outcome,
                         bool cancel) {
  Pending& p = it->second;
  Callback cb = std::move(p.callback);
  if (cancel) {
    // Fan out to every server this query's attempts touched: the first
    // hops it was forwarded to, plus everything the best partial's
    // provenance names (servers later hops pulled in). Idempotent on the
    // receiver.
    std::set<std::string> targets = p.contacted;
    if (p.best_partial != nullptr) {
      for (const auto& e : p.best_partial->provenance.entries()) {
        targets.insert(e.server);
      }
    }
    targets.erase(address());
    for (const auto& t : targets) {
      auto pid = net_->Lookup(t);
      if (!pid.ok() || *pid == self_) continue;
      counts_->Count(&PeerCounters::cancels_sent);
      wire::Send(net_, self_, *pid,
                 {wire::kCancelKind, it->first, 0, net::Payload()});
    }
  }
  completed_.Insert(it->first);
  pending_.erase(it);
  if (cb) cb(outcome);
}

std::vector<std::string> QueryClient::CheckInvariants() const {
  std::vector<std::string> violations;
  for (const auto& [qid, p] : pending_) {
    if (options_.reliability.enabled || p.deadline > 0) {
      violations.push_back("query " + qid + " still pending after attempt " +
                           std::to_string(p.attempt));
    }
  }
  return violations;
}

}  // namespace mqp::peer
