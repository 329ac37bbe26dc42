#include "peer/peer.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "algebra/walk.h"
#include "common/strings.h"
#include "engine/field_accessor.h"
#include "engine/operator.h"
#include "ns/urn.h"
#include "wire/body_codec.h"
#include "wire/plan_codec.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"
#include "xml/writer.h"

namespace mqp::peer {

using algebra::OpType;
using algebra::Plan;
using algebra::PlanNode;
using algebra::PlanNodePtr;
using algebra::ProvenanceAction;
using algebra::ProvenanceEntry;

namespace {

// FNV-1a, the shed coin's hash: the coin must be a pure function of
// (seed, query id, attempt), identical across backends and standard
// libraries (std::hash is implementation-defined, so it cannot be the
// coin).
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  for (const unsigned char c : s) {
    h = (h ^ c) * kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xffu)) * kFnvPrime;
  }
  return h;
}

// Retry backoff (DESIGN.md §9): each retry doubles the per-attempt
// timeout up to a 30-s cap, then scales it by a ±20% jitter draw.
constexpr double kBackoffFactor = 2.0;
constexpr double kMaxBackoffSeconds = 30;
constexpr double kRetryJitter = 0.2;

// Shedding (DESIGN.md §11): best-effort plans enter the RED gray zone at
// half the delay watermark; higher priorities are refused only past four
// times the watermark (server side) or the pending cap (client side).
constexpr double kEarlyShedFraction = 0.5;
constexpr double kHighPriorityCeiling = 4.0;

// `now - before` over one counter-table group, as a batch for Count.
#define MQP_COUNTER_DELTA(name) deltas.name = now.name - before.name;

PeerReportedCounters EngineDeltas(const engine::EngineStats& now,
                                  const engine::EngineStats& before) {
  PeerReportedCounters deltas;
  MQP_ENGINE_COUNTERS(MQP_COUNTER_DELTA)
  return deltas;
}

PeerReportedCounters ResolveDeltas(const catalog::ResolveStats& now,
                                   const catalog::ResolveStats& before) {
  PeerReportedCounters deltas;
  MQP_RESOLVE_COUNTERS(MQP_COUNTER_DELTA)
  return deltas;
}

#undef MQP_COUNTER_DELTA

}  // namespace

void Peer::Count(uint64_t PeerReportedCounters::*counter, uint64_t n) {
  counters_.*counter += n;
  sim_->stats().*counter += n;
}

void Peer::Count(const PeerReportedCounters& deltas) {
  counters_.Add(deltas);
  sim_->stats().Add(deltas);
}

/// Re-entrant: only the outermost scope records, so a result callback
/// that submits a fresh query from inside ProcessPlan cannot double-count.
class Peer::EngineTally {
 public:
  explicit EngineTally(Peer* peer) : peer_(peer), before_(engine::Stats()) {
    ++peer_->engine_tally_depth_;
  }

  ~EngineTally() {
    if (--peer_->engine_tally_depth_ > 0) return;
    peer_->Count(EngineDeltas(engine::Stats(), before_));
  }

  EngineTally(const EngineTally&) = delete;
  EngineTally& operator=(const EngineTally&) = delete;

 private:
  Peer* peer_;
  engine::EngineStats before_;
};

Peer::Peer(net::Transport* sim, PeerOptions options)
    : sim_(sim), options_(std::move(options)) {
  id_ = sim_->Register(this);
  if (options_.name.empty()) {
    options_.name = "peer-" + std::to_string(id_);
  }
  catalog_.set_dimension_fields(options_.dimension_fields);
  catalog_.SetAuthority(options_.interest, options_.roles.authoritative);
  catalog_.set_owner(address());
  // Per-peer jitter stream: the configured seed spread by peer id, so a
  // fleet sharing one ReliabilityOptions still staggers its retries.
  reliability_rng_ = mqp::Rng(options_.reliability.seed * 1000003ULL + id_ + 1);
}

void Peer::PublishCollection(const std::string& collection_id,
                             const ns::InterestArea& area,
                             const algebra::ItemSet& items) {
  store_.AddCollection(collection_id, items);
  collections_[collection_id] = area;
  // Local resolvability: the peer's own catalog maps the area to itself.
  catalog::IndexEntry e;
  e.level = catalog::HoldingLevel::kBase;
  e.area = area;
  e.server = address();
  e.xpath = engine::LocalStore::CollectionXPath(collection_id);
  if (sync_ != nullptr) {
    sync_->UpsertLocal(
        AreaSyncEntry(area, e.xpath, catalog::HoldingLevel::kBase));
  }
  catalog_.AddEntry(std::move(e));
}

void Peer::PublishNamed(const std::string& urn,
                        const std::string& collection_id,
                        const algebra::ItemSet& items) {
  store_.AddCollection(collection_id, items);
  const std::string xpath = engine::LocalStore::CollectionXPath(collection_id);
  catalog_.AddNamedMapping(urn, address(), xpath);
  named_published_[urn] = xpath;
  if (sync_ != nullptr) {
    sync_->UpsertLocal(NamedSyncEntry(urn, xpath));
  }
}

void Peer::AddOwnStatement(catalog::IntensionalStatement st) {
  catalog_.AddStatement(st);
  own_statements_.push_back(std::move(st));
}

void Peer::AddBootstrap(const std::string& address_text) {
  if (address_text == address()) return;
  for (const auto& b : bootstraps_) {
    if (b == address_text) return;
  }
  bootstraps_.push_back(address_text);
}

// --- dynamic catalog maintenance (src/sync/) --------------------------------------

catalog::SyncEntry Peer::AreaSyncEntry(const ns::InterestArea& area,
                                       const std::string& xpath,
                                       catalog::HoldingLevel level) const {
  catalog::SyncEntry se;
  se.kind = catalog::SyncEntryKind::kArea;
  se.entry.level = level;
  se.entry.area = area;
  se.entry.server = address();
  se.entry.xpath = xpath;
  return se;
}

catalog::SyncEntry Peer::NamedSyncEntry(const std::string& urn,
                                        const std::string& xpath) const {
  catalog::SyncEntry se;
  se.kind = catalog::SyncEntryKind::kNamed;
  se.urn = urn;
  se.entry.level = catalog::HoldingLevel::kBase;
  se.entry.server = address();
  se.entry.xpath = xpath;
  return se;
}

std::vector<catalog::SyncEntry> Peer::OwnSyncEntries() const {
  std::vector<catalog::SyncEntry> out;
  for (const auto& [id, area] : collections_) {
    out.push_back(AreaSyncEntry(area, engine::LocalStore::CollectionXPath(id),
                                catalog::HoldingLevel::kBase));
  }
  if (options_.roles.index || options_.roles.meta_index) {
    out.push_back(
        AreaSyncEntry(options_.interest, "", catalog::HoldingLevel::kIndex));
  }
  for (const auto& [urn, xpath] : named_published_) {
    out.push_back(NamedSyncEntry(urn, xpath));
  }
  return out;
}

void Peer::EnableSync(const sync::SyncOptions& options) {
  if (sync_ != nullptr) return;
  sync_ = std::make_unique<sync::SyncAgent>(sim_, id_, address(), &catalog_,
                                            options);
  for (const auto& se : OwnSyncEntries()) {
    sync_->UpsertLocal(se);
  }
  for (const auto& b : bootstraps_) {
    sync_->AddSeed(b);
  }
  // Index servers already known to the catalog are partner candidates
  // too (same peers JoinNetwork would push registrations at).
  catalog_.ForEachEntry([&](const catalog::IndexEntry& e) {
    if (e.level == catalog::HoldingLevel::kIndex && e.server != address()) {
      sync_->AddPeer(e.server);
    }
  });
  sync_->Start();
}

void Peer::LeaveNetwork() {
  if (sync_ != nullptr) sync_->Leave();
}

void Peer::Retire() {
  if (sync_ != nullptr) sync_->Retire();
  catalog_ = catalog::Catalog();
}

void Peer::RejoinNetwork() {
  if (sync_ == nullptr) return;
  const bool was_departed = sync_->departed();
  sync_->Rejoin();
  if (was_departed) {
    // A graceful departure tombstoned every assertion; the peer still
    // holds its data, so a rejoin re-asserts it (fresh stamps overwrite
    // the tombstones key-for-key).
    for (const auto& se : OwnSyncEntries()) {
      sync_->UpsertLocal(se);
    }
  }
  // Re-register like a restarting node (§3.3). Gossip restores catalog
  // *entries* on its own, but intensional statements travel only in
  // registration payloads — index servers that dropped our statements
  // while we were silent re-learn them from this push.
  JoinNetwork();
}

void Peer::PullIndexedData(int delay_minutes) {
  // Snapshot the base entries first; replies will add new ones.
  std::vector<catalog::IndexEntry> targets;
  catalog_.ForEachEntry([&](const catalog::IndexEntry& e) {
    if (e.level == catalog::HoldingLevel::kBase && e.server != address() &&
        !e.xpath.empty()) {
      targets.push_back(e);
    }
  });
  for (const auto& e : targets) {
    auto pid = sim_->Lookup(e.server);
    if (!pid.ok()) continue;
    const std::string req =
        options_.name + "-pull" + std::to_string(next_pull_++);
    pending_pulls_[req] = PendingPull{e.server, e.area, delay_minutes};
    // The request id rides in the envelope header; the body carries only
    // the fetch arguments.
    std::string body;
    xml::TokenWriter w(&body);
    w.Start("fetch");
    w.Attr("xpath", e.xpath);
    w.End();
    wire::Send(sim_, id_, *pid,
               {kFetchKind, req, 0, net::MakePayload(std::move(body))});
  }
}

void Peer::HandleFetchReply(const wire::Envelope& env) {
  const std::string& req = env.query_id;
  auto it = pending_pulls_.find(req);
  if (it == pending_pulls_.end()) {
    // Not an index pull — bounded top-k fetches reuse the fetch-reply
    // kind, correlated by the "#tk" request-id suffix.
    HandleBoundedReply(env);
    return;
  }
  auto decoded = wire::DecodeItemBody(env.body());
  if (!decoded.ok()) {
    Count(&PeerCounters::reply_decode_failures);
    return;
  }
  PendingPull pull = std::move(it->second);
  pending_pulls_.erase(it);
  algebra::ItemSet items = std::move(decoded).value();
  // Store the replica and make it locally resolvable with the declared
  // refresh delay. The id comes from a monotonic mint, never from
  // replicas_.size(): after a DropReplica the count shrinks, and reusing
  // the freed id would silently overwrite a live collection.
  const std::string collection_id =
      "replica-" + std::to_string(next_replica_++);
  store_.ReplaceCollection(collection_id, items);
  replicas_.push_back(collection_id);
  catalog::IndexEntry entry;
  entry.level = catalog::HoldingLevel::kBase;
  entry.area = pull.area;
  entry.server = address();
  entry.xpath = engine::LocalStore::CollectionXPath(collection_id);
  entry.delay_minutes = pull.delay_minutes;
  catalog_.AddEntry(std::move(entry));
  // Assert the §4.3 containment statement so bindings can reason about
  // the replica's currency.
  catalog::IntensionalStatement st;
  st.lhs.level = catalog::HoldingLevel::kBase;
  st.lhs.area = pull.area;
  st.lhs.server = address();
  st.relation = catalog::IntensionRelation::kContains;
  catalog::HoldingRef rhs;
  rhs.level = catalog::HoldingLevel::kBase;
  rhs.area = pull.area;
  rhs.server = pull.source_server;
  rhs.delay_minutes = pull.delay_minutes;
  st.rhs.push_back(std::move(rhs));
  AddOwnStatement(std::move(st));
}

void Peer::DropReplica(const std::string& collection_id) {
  auto it = std::find(replicas_.begin(), replicas_.end(), collection_id);
  if (it == replicas_.end()) return;
  replicas_.erase(it);
  store_.RemoveCollection(collection_id);
}

std::string Peer::SubmitQuery(Plan plan, Callback cb) {
  const OverloadOptions& ov = options_.overload;
  if (OverloadActive() && ov.max_pending_queries > 0) {
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
      std::string shed_qid =
          options_.name + "-q" + std::to_string(next_query_++);
      Count(&PeerCounters::queries_shed);
      QueryOutcome outcome;
      outcome.query_id = shed_qid;
      outcome.shed = true;
      outcome.submitted_at = sim_->now();
      outcome.completed_at = sim_->now();
      if (cb) cb(outcome);
      return shed_qid;
    }
  }
  std::string qid = options_.name + "-q" + std::to_string(next_query_++);
  plan.set_query_id(qid);
  plan.set_submitted_at(sim_->now());
  // Force the display target to this peer.
  PlanNodePtr body = plan.root();
  if (body != nullptr && body->type() == OpType::kDisplay) {
    body = body->child(0);
  }
  plan.set_root(PlanNode::Display(address(), body));
  if (options_.retain_original) plan.SnapshotOriginal();
  if (options_.record_provenance) {
    plan.provenance().Add({address(), sim_->now(),
                           ProvenanceAction::kForwarded, "submitted", 0});
  }
  const ReliabilityOptions& rel = options_.reliability;
  Pending pend;
  pend.callback = std::move(cb);
  pend.submitted_at = sim_->now();
  if (rel.query_deadline_seconds > 0) {
    pend.deadline = sim_->now() + rel.query_deadline_seconds;
  }
  if (rel.enabled) {
    // Retain the exact submitted plan (target set, provenance seeded):
    // every retry restarts from these bytes, not from whatever mutated
    // copy is stranded somewhere in the network.
    pend.original = std::make_shared<const Plan>(plan.Clone());
  }
  const double deadline = pend.deadline;
  pending_[qid] = std::move(pend);
  if (rel.enabled) {
    double when = sim_->now() + Backoff(0);
    if (deadline > 0 && (rel.max_retries == 0 || when > deadline)) {
      when = deadline;
    }
    ArmQueryTimer(qid, when);
  } else if (deadline > 0) {
    // Reliability ablated: no retries and no deadline on the wire, but
    // the pending entry is still reaped (the state-leak fix stands).
    ArmQueryTimer(qid, deadline);
  }
  const double wire_deadline = rel.enabled ? deadline : 0;
  sim_->ScheduleFor(id_, sim_->now(),
                    [this, p = std::move(plan), wire_deadline]() mutable {
                      ProcessPlan(std::move(p), /*hops=*/0, wire_deadline,
                                  /*attempt=*/0);
                    });
  return qid;
}

void Peer::HandleMessage(const net::Message& msg) {
  auto decoded = wire::DecodeEnvelope(msg);
  if (!decoded.ok()) {  // malformed frames are dropped
    Count(&PeerCounters::decode_rejects);
    return;
  }
  const wire::Envelope env = std::move(decoded).value();
  if (env.kind == kMqpKind) {
    HandleMqp(env);
  } else if (env.kind == kCancelKind) {
    HandleCancel(env);
  } else if (env.kind == kResultKind) {
    HandleResult(env);
  } else if (env.kind == kRegisterKind) {
    HandleRegister(env);
  } else if (env.kind == kCategoryQueryKind) {
    HandleCategoryQuery(env, msg.from);
  } else if (env.kind == kFetchKind) {
    HandleFetch(env, msg.from);
  } else if (env.kind == kSubqueryKind) {
    HandleSubquery(env, msg.from);
  } else if (env.kind == kFetchReplyKind) {
    HandleFetchReply(env);
  } else if (env.kind == kSubqueryReplyKind) {
    // The peer only sends subqueries as bounded top-k requests; every
    // subquery reply goes through the top-k demux.
    HandleBoundedReply(env);
  } else if (env.kind == kCategoryReplyKind) {
    HandleCategoryReply(env);
  } else if (env.kind == kSyncDigestKind) {
    if (sync_ != nullptr && !sync_->HandleDigest(env, msg.from)) {
      Count(&PeerCounters::decode_rejects);
    }
  } else if (env.kind == kSyncDeltaKind) {
    if (sync_ != nullptr && !sync_->HandleDelta(env, msg.from)) {
      Count(&PeerCounters::decode_rejects);
    }
  }
}

namespace {

// Reads the <cat> texts of a category reply; false on a malformed body.
bool ParseCategoryReply(std::string_view body,
                        std::vector<std::string>* categories) {
  xml::TokenReader r(body);
  auto t = r.Next();
  if (!t.ok() || t->type != xml::TokenType::kStartElement) return false;
  xml::AttrList attrs;
  t = r.ReadAttrs(&attrs);
  while (t.ok() && t->type != xml::TokenType::kEndElement) {
    if (t->type == xml::TokenType::kStartElement) {
      if (t->name == "cat") {
        // Concatenate the element's text runs (InnerText equivalent;
        // <cat> carries a single text child in practice).
        std::string text;
        size_t depth = r.depth();
        while (t.ok() && r.depth() >= depth) {
          t = r.Next();
          if (t.ok() && t->type == xml::TokenType::kText) text += t->value;
        }
        if (!t.ok()) return false;
        categories->push_back(std::move(text));
      } else if (!r.SkipToElementEnd().ok()) {
        return false;
      }
    }
    t = r.Next();
  }
  return t.ok();
}

}  // namespace

void Peer::HandleCategoryReply(const wire::Envelope& env) {
  // Correlation comes from the wire header; only the category list
  // requires the body.
  auto it = category_waiters_.find(env.query_id);
  if (it == category_waiters_.end()) return;
  std::vector<std::string> categories;
  if (!ParseCategoryReply(env.body(), &categories)) {
    Count(&PeerCounters::decode_rejects);
    return;
  }
  auto cb = std::move(it->second);
  category_waiters_.erase(it);
  cb(categories);
}

// --- the Figure-2 loop ---------------------------------------------------------

void Peer::ProcessPlan(Plan plan, uint32_t hops, double deadline,
                       uint32_t attempt) {
  // Report the engine counters this pass produces. The scope spans the
  // whole loop: annotation fetches, locality probes and sub-plan
  // evaluation all touch the store/engine.
  const EngineTally tally(this);
  // Under the overload service model a plan whose deadline already passed
  // skips the whole resolve/optimize pass: RouteOrDeliver's deadline
  // branch salvages what it can under the floor budget and delivers the
  // partial — nobody is waiting for a better answer (DESIGN.md §11).
  if (OverloadActive() && options_.overload.service_rate_qps > 0 &&
      deadline > 0 && sim_->now() >= deadline) {
    RouteOrDeliver(std::move(plan), hops, deadline, attempt);
    return;
  }
  // ResolveUrns records one kBound provenance entry per URN it binds (the
  // entry's detail is the bound URN — §5.1's "catalog improvement" data).
  const int bound = ResolveUrns(&plan);
  AnnotateLocalUrls(&plan);
  ApplyRewrites(&plan);
  int reduced = 0;
  {
    // Sub-plan evaluation runs under the query's remaining-deadline row
    // allowance: a budget expiring mid-scan aborts the evaluation with
    // kTimeout, the sub-plan stays unreduced, and the partial flows out
    // through the normal incomplete-plan machinery.
    const engine::ScopedEvalBudget budget(EvalLimitsFor(deadline));
    reduced = EvaluateSubplans(&plan);
  }
  if (options_.record_provenance) {
    if (reduced > 0) {
      AddProvenance(&plan, ProvenanceAction::kEvaluated,
                    options_.name + ":" + std::to_string(reduced) +
                        " subplan(s)",
                    optimizer::MaxStalenessMinutes(*plan.root()));
    } else if (bound == 0) {
      AddProvenance(&plan, ProvenanceAction::kForwarded, options_.name,
                    optimizer::MaxStalenessMinutes(*plan.root()));
    }
  }
  RouteOrDeliver(std::move(plan), hops, deadline, attempt);
}

namespace {

bool PlanContainsUrn(const PlanNode& root, const std::string& urn) {
  bool found = false;
  algebra::ForEachNode(&root, [&](const PlanNode* n) {
    found = found || (n->type() == OpType::kUrn && n->urn() == urn);
  });
  return found;
}

}  // namespace

void Peer::AnnotateLocalUrls(Plan* plan) {
  // §5.1: attach true statistics to local collections so the optimizer's
  // deferment and absorption decisions (here and downstream) work from
  // facts instead of defaults.
  if (plan->root() == nullptr) return;
  const std::string self = address();
  algebra::ForEachNode(plan->root().get(), [&](PlanNode* n) {
    if (n->type() != OpType::kUrl || n->url() != self) return;
    if (n->annotations().cardinality.has_value()) return;
    auto items = store_.Fetch(n->url(), n->xpath());
    if (!items.ok()) return;
    uint64_t bytes = 0;
    for (const auto& item : *items) {
      bytes += xml::SerializedSize(*item);
    }
    n->annotations().cardinality = items->size();
    n->annotations().bytes = bytes;
    for (const auto& field : options_.histogram_fields) {
      auto h = algebra::FieldHistogram::Build(*items, field);
      if (h) n->annotations().histograms.push_back(std::move(*h));
    }
  });
}

int Peer::ResolveUrns(Plan* plan) {
  if (plan->root() == nullptr) return 0;
  // The catalog's resolution instrumentation is reported as deltas of
  // the resolve counter group (common/counters.h).
  const catalog::ResolveStats before = catalog_.resolve_stats();
  int bound = 0;
  // Snapshot the URN nodes up front; bindings may add new URN leaves
  // (referrals), which later servers resolve.
  std::vector<PlanNode*> urn_nodes;
  algebra::ForEachNode(plan->root().get(), [&](PlanNode* n) {
    if (n->type() == OpType::kUrn) urn_nodes.push_back(n);
  });
  for (PlanNode* node : urn_nodes) {
    const std::string urn_text = node->urn();
    // §5.2 ordering policy: do not bind `then` while `first` is pending.
    bool blocked = false;
    for (const auto& [first, then] : plan->policy().bind_after) {
      if (then == urn_text && PlanContainsUrn(*plan->root(), first)) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    // §5.1 spoofing hook: bind to the empty set with no visit to the
    // rightful source.
    if (!options_.spoof_urn_substring.empty() &&
        urn_text.find(options_.spoof_urn_substring) != std::string::npos) {
      node->MorphToData({});
      ++bound;
      if (options_.record_provenance) {
        // The spoofer records a normal-looking entry; detection relies on
        // the rightful source being absent from the history (§5.1).
        AddProvenance(plan, ProvenanceAction::kBound, urn_text);
      }
      continue;
    }
    auto resolved = catalog_.Resolve(urn_text);
    if (!resolved.ok()) continue;
    catalog::Binding binding_value = std::move(resolved).value();
    catalog::Binding* binding = &binding_value;
    if (binding->empty()) {
      // §3.3: an authoritative server *knows about all base servers within
      // its area of interest* — if it has nothing for a covered request,
      // the answer for that region is the empty set, and leaving the URN
      // unresolved would strand the plan.
      auto urn = ns::Urn::Parse(urn_text);
      if (options_.roles.authoritative && urn.ok() &&
          urn->IsInterestArea()) {
        auto area = urn->ToInterestArea();
        if (area.ok() && options_.interest.Covers(*area)) {
          node->MorphToData({});
          ++bound;
        }
      }
      // §5.1 catalog improvement: remember who else was hinted to resolve
      // this URN, so future queries can route straight there.
      if (options_.cache_from_plans && !node->urn_hint().empty() &&
          node->urn_hint() != address() && urn.ok() &&
          urn->IsInterestArea()) {
        auto area = urn->ToInterestArea();
        if (area.ok()) {
          catalog::IndexEntry e;
          e.level = catalog::HoldingLevel::kIndex;
          e.area = std::move(area).value();
          e.server = node->urn_hint();
          catalog_.AddEntry(std::move(e));
        }
      }
      continue;
    }
    // Failover (DESIGN.md §9): drop alternatives routed through servers
    // the plan was told to avoid, currently under suspicion, or known
    // dead to the transport, binding via the next alternative instead.
    // When *every* alternative is excluded the original binding stands —
    // the client learns the culprit from the unanswered leaves.
    if (options_.reliability.enabled && binding->alternatives.size() > 1) {
      const auto& avoid = plan->policy().route_avoid;
      catalog::Binding filtered =
          binding->WithoutServers([&](const std::string& server) {
            if (server == address()) return false;
            if (std::find(avoid.begin(), avoid.end(), server) !=
                avoid.end()) {
              return true;
            }
            if (IsSuspect(server)) return true;
            auto spid = sim_->Lookup(server);
            return spid.ok() && sim_->IsFailed(*spid);
          });
      if (!filtered.empty() &&
          filtered.alternatives.size() < binding->alternatives.size()) {
        Count(&PeerCounters::failovers);
        binding_value = std::move(filtered);
      }
    }
    // Skip no-op bindings: a single referral pointing at ourselves (we
    // failed to resolve locally) or at the hint the node already carries.
    if (binding->alternatives.size() == 1 &&
        binding->alternatives[0].sources.size() == 1) {
      const catalog::SourceRef& only = binding->alternatives[0].sources[0];
      if (only.level == catalog::HoldingLevel::kIndex &&
          (only.server == address() || only.server == node->urn_hint())) {
        continue;
      }
    }
    node->MorphTo(*catalog::BindingToPlan(*binding));
    ++bound;
    if (options_.record_provenance) {
      AddProvenance(plan, ProvenanceAction::kBound, urn_text);
    }
  }
  counters_.urns_bound += bound;
  Count(ResolveDeltas(catalog_.resolve_stats(), before));
  return bound;
}

void Peer::ApplyRewrites(Plan* plan) {
  if (plan->root() == nullptr) return;
  PlanNode* root = plan->root().get();
  const optimizer::Locality locality = LocalLocality();
  const optimizer::CostModel cost(options_.cost);
  optimizer::EliminateOrNodes(root, locality, cost,
                              CurrentOrPreference(*plan));
  if (options_.enable_select_pushdown) {
    optimizer::PushSelectThroughUnion(root);
  }
  optimizer::SplitDifferenceOverUnion(root, locality);
  if (options_.enable_absorption) {
    optimizer::ApplyAbsorption(root, locality, cost);
  }
  if (options_.enable_consolidation) {
    optimizer::ConsolidateJoins(root, locality);
  }
  // Last, after pushdown has shaped the union branches: stamp top-k
  // bounds on remote single-server sub-plans (no-op when ablated).
  optimizer::PushTopKBounds(root, locality);
}

int Peer::EvaluateSubplans(Plan* plan) {
  if (plan->root() == nullptr) return 0;
  const optimizer::Locality locality = LocalLocality();
  auto worklist =
      optimizer::MaximalEvaluableSubplans(plan->root().get(), locality);
  if (worklist.empty()) return 0;
  const optimizer::CostModel cost(options_.cost);
  const optimizer::PolicyManager pm(options_.policy);
  int reduced = 0;
  // A deferred operator's *inputs* still have to be materialized before
  // the plan leaves this peer (local URL leaves are unreadable elsewhere),
  // so deferment descends: skip the operator, process its children.
  while (!worklist.empty()) {
    std::vector<PlanNode*> next;
    for (const auto& decision : pm.Decide(worklist, cost)) {
      if (!decision.evaluate) {
        ++counters_.subplans_deferred;
        for (const auto& c : decision.subplan->children()) {
          if (!c->IsConstant()) next.push_back(c.get());
        }
        continue;
      }
      // A failed sub-plan is left for another server.
      if (ReduceSubplan(decision.subplan)) ++reduced;
    }
    worklist = std::move(next);
  }
  counters_.subplans_evaluated += reduced;
  return reduced;
}

int Peer::ForceEvaluate(Plan* plan) {
  // Final-resort evaluation ignoring deferment: used when the plan has
  // nowhere else to go — better a big answer than none.
  if (plan->root() == nullptr) return 0;
  const optimizer::Locality locality = LocalLocality();
  auto candidates =
      optimizer::MaximalEvaluableSubplans(plan->root().get(), locality);
  int reduced = 0;
  for (PlanNode* node : candidates) {
    if (ReduceSubplan(node)) ++reduced;
  }
  counters_.subplans_evaluated += reduced;
  return reduced;
}

bool Peer::ReduceSubplan(PlanNode* node) {
  if (node->IsFoldableUnion()) {
    auto inputs = engine::EvaluateUnionInputs(*node, &store_);
    if (!inputs.ok()) return false;
    node->FoldUnion(*inputs);
    return true;
  }
  auto items = engine::Evaluate(*node, &store_);
  if (!items.ok()) return false;
  algebra::ItemSet data = std::move(items).value();
  TruncateForTopK(*node, &data);
  node->MorphToData(std::move(data));
  return true;
}

optimizer::Locality Peer::LocalLocality() const {
  optimizer::Locality loc;
  const std::string self = address();
  loc.is_local_url = [self](const PlanNode& n) { return n.url() == self; };
  // Field-provenance probe into the local store: fetch the collection and
  // check that every item carries the field (collections are small enough
  // that probing is cheap relative to a mis-rewrite).
  loc.url_provides_field = [this, self](const PlanNode& n,
                                        const std::string& path) {
    if (n.url() != self) return false;
    auto items = const_cast<engine::LocalStore&>(store_).Fetch(n.url(),
                                                               n.xpath());
    if (!items.ok() || items->empty()) return false;
    auto field = algebra::Expr::Field(path);
    for (const auto& item : *items) {
      if (!field->EvalValue(*item)) return false;
    }
    return true;
  };
  return loc;
}

optimizer::OrPreference Peer::CurrentOrPreference(const Plan& plan) const {
  const algebra::PlanPolicy& pol = plan.policy();
  if (pol.time_budget_seconds > 0) {
    const double elapsed = sim_->now() - plan.submitted_at();
    // Budget pressure: fall back to the fastest alternative.
    if (elapsed > 0.5 * pol.time_budget_seconds) {
      return optimizer::OrPreference::kCheapest;
    }
  }
  // Every alternative of a binding is a *complete* answer as far as the
  // catalog knows (§4.2); "complete" therefore means "take the cheap,
  // possibly stale branch", while "current" minimizes the staleness bound
  // at extra latency (§4.3's R{30} | (R ∪ S){0} choice).
  return pol.preference == algebra::AnswerPreference::kCurrent
             ? optimizer::OrPreference::kPreferCurrent
             : optimizer::OrPreference::kCheapest;
}

void Peer::AddProvenance(Plan* plan, ProvenanceAction action,
                         std::string detail, int staleness) {
  plan->provenance().Add(
      {address(), sim_->now(), action, std::move(detail), staleness});
}

namespace {

// Short human-readable digest of the leaves a plan never got answered
// (for the §9 degradation provenance marker): up to four leaf names,
// then "+N" for the rest.
std::string UnansweredSummary(const Plan& plan, const std::string& self) {
  std::vector<std::string> names;
  if (plan.root() != nullptr) {
    const PlanNode* root = plan.root().get();
    algebra::ForEachNode(root, [&](const PlanNode* n) {
      if (n->type() == OpType::kUrl && n->url() != self) {
        names.push_back(n->url());
      }
    });
    algebra::ForEachNode(root, [&](const PlanNode* n) {
      if (n->type() == OpType::kUrn) names.push_back(n->urn());
    });
  }
  std::string out;
  const size_t shown = names.size() < 4 ? names.size() : 4;
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) out += ',';
    out += names[i];
  }
  if (names.size() > shown) {
    out += "+" + std::to_string(names.size() - shown);
  }
  return out;
}

}  // namespace

net::Payload Peer::PlanBody(const Plan& plan) {
  PeerReportedCounters deltas;
  auto serialized = wire::SerializePlanShared(plan, &deltas);
  Count(deltas);
  return std::move(serialized.bytes);
}

Result<Plan> Peer::DecodePlan(const net::Payload& body) {
  PeerReportedCounters deltas;
  auto plan = wire::ParsePlanShared(body, &deltas);
  Count(deltas);
  return plan;
}

void Peer::RouteOrDeliver(Plan plan, uint32_t hops, double deadline,
                          uint32_t attempt) {
  if (plan.root() == nullptr) return;
  if (plan.IsFullyEvaluated()) {
    DeliverToTarget(std::move(plan), deadline, attempt);
    return;
  }
  // Deadline expired in flight: stop routing, reduce whatever is
  // reducible here, and return the plan as-is — a partial answer with
  // provenance naming what went unanswered beats silence (DESIGN.md §9).
  if (deadline > 0 && sim_->now() >= deadline) {
    {
      // Past-deadline salvage is floor-budgeted when budgets are
      // configured: reduce the cheap parts, never burn the core scanning
      // a large collection nobody is still waiting for (DESIGN.md §11).
      engine::EvalLimits lim;
      if (OverloadActive() && options_.overload.budget_rows_per_second > 0) {
        lim.max_rows = options_.overload.min_budget_rows;
      }
      const engine::ScopedEvalBudget budget(lim);
      ForceEvaluate(&plan);
    }
    if (!plan.IsFullyEvaluated() && options_.record_provenance) {
      AddProvenance(&plan, ProvenanceAction::kForwarded,
                    "deadline-expired unanswered:" +
                        UnansweredSummary(plan, address()));
    }
    DeliverToTarget(std::move(plan), deadline, attempt);
    return;
  }
  // Distributed top-k (DESIGN.md §10): if the remainder is a TopN over
  // bound-stamped remote sub-plans, pull score-ordered prefixes here
  // instead of forwarding the whole plan. The session owns the plan until
  // the bound proves no remote row can still win.
  if (MaybeStartTopKSession(&plan, hops, deadline, attempt)) return;
  // Gather candidate next hops: servers of remote URL leaves, resolver
  // hints of URN leaves, bootstrap servers for unhinted URNs.
  std::map<std::string, int> candidates;
  const std::string self = address();
  bool has_unhinted_urn = false;
  algebra::ForEachNode(plan.root().get(), [&](const PlanNode* n) {
    if (n->type() == OpType::kUrl) {
      if (n->url() != self) candidates[n->url()] += 2;  // direct data: best
    } else if (n->type() == OpType::kUrn) {
      if (!n->urn_hint().empty()) {
        if (n->urn_hint() != self) candidates[n->urn_hint()] += 1;
      } else {
        has_unhinted_urn = true;
      }
    }
  });
  if (has_unhinted_urn) {
    for (const auto& b : bootstraps_) {
      candidates[b] += 0;  // present, lowest priority
    }
  }
  // §5.2 transfer policy: restrict to the allowlist.
  if (!plan.policy().route_allow.empty()) {
    const auto& allow = plan.policy().route_allow;
    std::erase_if(candidates, [&](const auto& kv) {
      return std::find(allow.begin(), allow.end(), kv.first) == allow.end();
    });
  }
  // Reliability failover (DESIGN.md §9), two grades. Hard: candidates the
  // transport knows are down are dropped unconditionally (the stand-in
  // for a refused connection) and go on the suspicion list. Soft: the
  // plan's route_avoid stamp and the local suspicion list are advisory —
  // honored only while at least one candidate survives, because a stale
  // suspicion must never strand a plan that still has somewhere to go.
  bool routed_around = false;
  if (options_.reliability.enabled && !candidates.empty()) {
    for (auto cit = candidates.begin(); cit != candidates.end();) {
      auto cpid = sim_->Lookup(cit->first);
      if (cpid.ok() && sim_->IsFailed(*cpid)) {
        Suspect(cit->first);
        cit = candidates.erase(cit);
        routed_around = true;
      } else {
        ++cit;
      }
    }
    if (!candidates.empty()) {
      const auto& avoid = plan.policy().route_avoid;
      std::map<std::string, int> kept;
      for (const auto& [addr, score] : candidates) {
        const bool avoided =
            std::find(avoid.begin(), avoid.end(), addr) != avoid.end();
        if (!avoided && !IsSuspect(addr)) kept.emplace(addr, score);
      }
      if (!kept.empty() && kept.size() < candidates.size()) {
        candidates = std::move(kept);
        routed_around = true;
      }
    }
  }
  // The wire-layer hop count guards routing loops even when provenance
  // recording is off (provenance-size alone used to be the only brake).
  const bool over_hop_limit =
      static_cast<int>(plan.provenance().size()) >= options_.max_hops ||
      static_cast<int>(hops) >= options_.max_hops;
  if (candidates.empty() || over_hop_limit) {
    // Dead end: finish whatever is finishable here (deferment no longer
    // helps a plan with nowhere to go), then return it to its target.
    if (ForceEvaluate(&plan) > 0 && plan.IsFullyEvaluated()) {
      DeliverToTarget(std::move(plan), deadline, attempt);
      return;
    }
    ++counters_.plans_dead_ended;
    if (!plan.IsFullyEvaluated() && options_.record_provenance) {
      AddProvenance(&plan, ProvenanceAction::kForwarded,
                    "dead-end unanswered:" + UnansweredSummary(plan, self));
    }
    DeliverToTarget(std::move(plan), deadline, attempt);
    return;
  }
  // Prefer unvisited servers; then the candidate that can make the most
  // progress; then the lowest address for determinism.
  std::string best;
  int best_score = -1;
  bool best_unvisited = false;
  for (const auto& [addr, score] : candidates) {
    const bool unvisited = !plan.provenance().Visited(addr);
    if (best.empty() || (unvisited && !best_unvisited) ||
        (unvisited == best_unvisited &&
         (score > best_score ||
          (score == best_score && addr < best)))) {
      best = addr;
      best_score = score;
      best_unvisited = unvisited;
    }
  }
  if (!best_unvisited &&
      static_cast<int>(plan.provenance().size()) + 2 >= options_.max_hops) {
    // Everything promising was already visited and we are nearly out of
    // hops: give up gracefully with a partial answer.
    ++counters_.plans_dead_ended;
    DeliverToTarget(std::move(plan), deadline, attempt);
    return;
  }
  auto pid = sim_->Lookup(best);
  if (!pid.ok()) {
    ++counters_.plans_dead_ended;
    DeliverToTarget(std::move(plan), deadline, attempt);
    return;
  }
  if (routed_around) {
    // The plan made it past at least one dead/suspect server and is
    // still moving: one failover per routing decision.
    Count(&PeerCounters::failovers);
  }
  if (auto pit = pending_.find(plan.query_id()); pit != pending_.end()) {
    // This peer is the query's own client: remember the first hop so a
    // later cancel fan-out can reach the work (DESIGN.md §11).
    pit->second.contacted.insert(best);
  }
  ++counters_.plans_forwarded;
  net::Payload body = PlanBody(plan);
  wire::Send(sim_, id_, *pid,
             {kMqpKind, plan.query_id(), hops + 1, std::move(body), deadline,
              attempt});
}

void Peer::DeliverToTarget(Plan plan, double deadline, uint32_t attempt) {
  const std::string target = plan.target();
  auto pid = sim_->Lookup(target);
  if (!pid.ok()) return;  // no deliverable target: drop
  net::Payload body = PlanBody(plan);
  if (*pid == id_) {
    HandleResultPlan(std::move(plan), body->size());
    return;
  }
  ++counters_.results_delivered;
  // The attempt number rides along so each retry's result is a distinct
  // byte string under content-hash fault injection.
  wire::Send(sim_, id_, *pid,
             {kResultKind, plan.query_id(), 0, std::move(body), deadline,
              attempt});
}

void Peer::HandleResult(const wire::Envelope& env) {
  // A result's items are built here, when the client reads them, so the
  // result hop is DOM-counted like an mqp hop.
  const uint64_t nodes_before = xml::DomNodesBuilt();
  auto plan = DecodePlan(env.payload);
  if (!plan.ok()) {
    Count(&PeerCounters::decode_rejects);
    return;
  }
  HandleResultPlan(std::move(plan).value(), env.body().size());
  counters_.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
}

void Peer::HandleResultPlan(Plan plan, size_t wire_bytes) {
  auto it = pending_.find(plan.query_id());
  if (it == pending_.end()) {
    // Unknown — or a late duplicate for a query that already finished
    // (a retry raced the original, or the fault plan duplicated the
    // result): count the suppression, deliver nothing twice.
    if (completed_.Contains(plan.query_id())) {
      Count(&PeerCounters::duplicates_suppressed);
    }
    return;
  }
  // §3.4 caching: each kBound provenance entry names the exact URN the
  // server resolved — under the completeness gate, a binder either covered
  // that area or was authoritative for it, so (area → server) is a sound
  // cache entry.
  if (options_.cache_from_plans) {
    for (const auto& e : plan.provenance().entries()) {
      if (e.action != ProvenanceAction::kBound || e.server == address()) {
        continue;
      }
      auto urn = ns::Urn::Parse(e.detail);
      if (!urn.ok()) continue;
      if (urn->IsInterestArea()) {
        auto area = urn->ToInterestArea();
        if (!area.ok()) continue;
        catalog::IndexEntry entry;
        entry.level = catalog::HoldingLevel::kIndex;
        entry.area = std::move(area).value();
        entry.server = e.server;
        catalog_.AddEntry(std::move(entry));
      } else {
        catalog_.AddNamedReferral(e.detail, e.server);
      }
    }
  }
  Pending& p = it->second;
  const bool complete = plan.IsFullyEvaluated();
  const ReliabilityOptions& rel = options_.reliability;
  if (!complete && rel.enabled) {
    // An attempt came back short. Quarantine the servers that went
    // unanswered, keep the best partial seen so far, and retry after a
    // backoff (the same pacing as a timeout: an immediate relaunch would
    // burn the retry budget before a crashed server restarts) — unless
    // the deadline or retry budget is spent, in which case the best
    // partial goes out now.
    const std::string qid = plan.query_id();
    SuspectUnansweredLeaves(plan);
    // Shed markers are authoritative refusals (DESIGN.md §11):
    // quarantine the shedding servers so the retry binds and routes
    // around the hot spot instead of queueing behind it again.
    for (const auto& e : plan.provenance().entries()) {
      if (e.action == ProvenanceAction::kShed) Suspect(e.server);
    }
    QueryOutcome partial;
    partial.query_id = qid;
    partial.complete = false;
    partial.items = plan.PartialItems();
    partial.provenance = plan.provenance();
    partial.submitted_at = p.submitted_at;
    partial.completed_at = sim_->now();
    partial.result_bytes = wire_bytes;
    partial.final_plan = std::move(plan);
    if (p.best_partial == nullptr ||
        partial.items.size() > p.best_partial->items.size()) {
      p.best_partial = std::make_unique<QueryOutcome>(std::move(partial));
    }
    const double now = sim_->now();
    const bool budget_left = p.original != nullptr &&
                             p.attempt + 1 <= rel.max_retries &&
                             (p.deadline == 0 || now < p.deadline);
    if (budget_left) {
      ++p.generation;  // stale timers from this attempt no-op
      double when = now + Backoff(p.attempt);
      if (p.deadline > 0 && when > p.deadline) when = p.deadline;
      ArmQueryTimer(qid, when);
      return;
    }
    GiveUp(qid);
    return;
  }
  QueryOutcome outcome;
  outcome.query_id = plan.query_id();
  outcome.complete = complete;
  if (outcome.complete) {
    auto items = plan.ResultItems();
    if (items.ok()) outcome.items = std::move(items).value();
  }
  outcome.provenance = plan.provenance();
  outcome.submitted_at = p.submitted_at;
  outcome.completed_at = sim_->now();
  outcome.result_bytes = wire_bytes;
  outcome.attempts = p.attempt + 1;
  outcome.final_plan = std::move(plan);
  Callback cb = std::move(p.callback);
  if (OverloadActive() && p.attempt > 0) {
    // A retried query may have superseded attempts still live in the
    // network; reap them. Fault-free single-attempt traffic skips this,
    // keeping its wire traces byte-identical.
    SendCancels(outcome.query_id, p);
  }
  completed_.Insert(outcome.query_id);
  pending_.erase(it);
  if (cb) cb(outcome);
}

// --- client reliability (DESIGN.md §9) ------------------------------------------

double Peer::Backoff(uint32_t attempt) {
  double base = options_.reliability.retry_timeout_seconds;
  for (uint32_t i = 0; i < attempt; ++i) {
    base *= kBackoffFactor;
    if (base >= kMaxBackoffSeconds) break;
  }
  if (base > kMaxBackoffSeconds) base = kMaxBackoffSeconds;
  const double u = reliability_rng_.NextDouble();
  return base * (1.0 + kRetryJitter * (2.0 * u - 1.0));
}

void Peer::Suspect(const std::string& server) {
  if (!options_.reliability.enabled) return;
  if (server.empty() || server == address()) return;
  suspects_[server] = sim_->now() + kSuspicionTtlSeconds;
}

bool Peer::IsSuspect(const std::string& server) {
  auto it = suspects_.find(server);
  if (it == suspects_.end()) return false;
  if (it->second <= sim_->now()) {
    suspects_.erase(it);  // quarantine over: forgive lazily
    return false;
  }
  return true;
}

void Peer::SuspectUnansweredLeaves(const Plan& plan) {
  if (plan.root() == nullptr) return;
  // The leaves still unresolved in a returned plan name exactly the
  // servers whose answers never arrived — the confirmed casualties, as
  // opposed to every server the route touched.
  algebra::ForEachNode(plan.root().get(), [&](const PlanNode* n) {
    if (n->type() == OpType::kUrl && n->url() != address()) {
      Suspect(n->url());
    } else if (n->type() == OpType::kUrn && !n->urn_hint().empty() &&
               n->urn_hint() != address()) {
      Suspect(n->urn_hint());
    }
  });
}

void Peer::ArmQueryTimer(const std::string& query_id, double when) {
  auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  const uint64_t gen = it->second.generation;
  sim_->ScheduleFor(id_, when, [this, qid = query_id, gen] {
    OnQueryTimer(qid, gen);
  });
}

void Peer::OnQueryTimer(const std::string& query_id, uint64_t generation) {
  auto it = pending_.find(query_id);
  if (it == pending_.end()) return;       // already finished
  Pending& p = it->second;
  if (p.generation != generation) return;  // superseded by a newer event
  const ReliabilityOptions& rel = options_.reliability;
  const double now = sim_->now();
  if (!rel.enabled || p.original == nullptr ||
      (p.deadline > 0 && now >= p.deadline) ||
      p.attempt + 1 > rel.max_retries) {
    GiveUp(query_id);
    return;
  }
  StartAttempt(query_id, p.attempt + 1);
}

void Peer::StartAttempt(const std::string& query_id, uint32_t attempt) {
  auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  p.attempt = attempt;
  ++p.generation;
  Count(&PeerCounters::query_retries);
  Plan plan = p.original->Clone();
  if (options_.record_provenance) {
    AddProvenance(&plan, ProvenanceAction::kForwarded,
                  "retry " + std::to_string(attempt));
  }
  // Stamp the current (unexpired) suspicion list into the plan so every
  // hop of this attempt resolves and routes around the casualties the
  // previous attempts discovered.
  auto& avoid = plan.policy().route_avoid;
  avoid.clear();
  const double now = sim_->now();
  for (auto sit = suspects_.begin(); sit != suspects_.end();) {
    if (sit->second <= now) {
      sit = suspects_.erase(sit);
    } else {
      avoid.push_back(sit->first);  // map order: deterministic stamp
      ++sit;
    }
  }
  const double deadline = p.deadline;
  double when = now + Backoff(attempt);
  if (deadline > 0) {
    // The last allowed attempt gets the whole remaining budget: giving
    // up one backoff step after launching it would discard a result
    // that is still legitimately in flight.
    if (attempt >= options_.reliability.max_retries || when > deadline) {
      when = deadline;
    }
  }
  ArmQueryTimer(query_id, when);
  // Last: processing may complete the query synchronously (local data),
  // erasing the pending entry `p` points into.
  ProcessPlan(std::move(plan), /*hops=*/0, deadline, attempt);
}

void Peer::GiveUp(const std::string& query_id) {
  auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  Count(&PeerCounters::query_timeouts);
  QueryOutcome outcome;
  if (p.best_partial != nullptr) {
    outcome = std::move(*p.best_partial);
  } else {
    outcome.query_id = query_id;
    outcome.submitted_at = p.submitted_at;
  }
  outcome.complete = false;
  outcome.timed_out = true;
  outcome.attempts = p.attempt + 1;
  outcome.completed_at = sim_->now();
  if (!outcome.items.empty()) {
    Count(&PeerCounters::partials_delivered);
  }
  Callback cb = std::move(p.callback);
  // Giving up abandons every in-flight attempt: tell the servers that
  // hold its work to stop (DESIGN.md §11).
  if (OverloadActive()) SendCancels(query_id, p);
  completed_.Insert(query_id);
  pending_.erase(it);
  if (cb) cb(outcome);
}

// --- registration ---------------------------------------------------------------

namespace {

// A registration payload, token-decoded into plain records so handling
// and the authoritative forward never touch a DOM.
struct RegisterEntry {
  std::string level;  // "base" / "index" (raw attribute, default "base")
  std::string area;
  std::string xpath;
  int delay = 0;  // minutes (§4.3); an absent attribute reads as 0
};

struct RegisterNamed {
  std::string urn;
  std::string xpath;
};

struct RegisterDoc {
  std::string server;
  std::string name;
  int64_t ttl = 0;
  std::vector<RegisterEntry> entries;
  std::vector<RegisterNamed> named;
  std::vector<std::string> statements;
};

Result<RegisterDoc> ParseRegisterBody(std::string_view body) {
  xml::TokenReader r(body);
  MQP_ASSIGN_OR_RETURN(xml::Token t, r.Next());
  if (t.type != xml::TokenType::kStartElement) {
    return r.Error("expected a root element");
  }
  RegisterDoc doc;
  xml::AttrList attrs;
  MQP_ASSIGN_OR_RETURN(t, r.ReadAttrs(&attrs));
  doc.server = attrs.Get("server");
  doc.name = attrs.Get("name");
  (void)mqp::ParseInt64(attrs.Get("ttl", "0"), &doc.ttl);
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      const std::string ctag(t.name);
      xml::AttrList child;
      MQP_ASSIGN_OR_RETURN(xml::Token ct, r.ReadAttrs(&child));
      if (ctag == "entry") {
        RegisterEntry e{child.Get("level", "base"), child.Get("area"),
                        child.Get("xpath")};
        if (const std::string* d = child.Find("delay");
            d != nullptr && !mqp::ParseInteger(*d, &e.delay)) {
          return r.Error("register delay must be an int");
        }
        doc.entries.push_back(std::move(e));
      } else if (ctag == "named") {
        doc.named.push_back(
            RegisterNamed{child.Get("urn"), child.Get("xpath")});
      } else if (ctag == "statement") {
        // InnerText semantics: collect text across nested elements until
        // the <statement> itself closes (depth-based, so a child's end
        // tag cannot be mistaken for the statement's).
        std::string text;
        if (ct.type != xml::TokenType::kEndElement) {
          const size_t target = r.depth();  // <statement> is innermost
          xml::Token st = ct;
          while (true) {
            if (st.type == xml::TokenType::kText) text += st.value;
            if (st.type == xml::TokenType::kEndElement &&
                r.depth() < target) {
              break;
            }
            MQP_ASSIGN_OR_RETURN(st, r.Next());
          }
          ct = r.current();  // the statement's own end tag
        }
        doc.statements.push_back(std::move(text));
      }
      if (ct.type != xml::TokenType::kEndElement) {
        MQP_RETURN_IF_ERROR(r.SkipToElementEnd());
      }
    }
    MQP_ASSIGN_OR_RETURN(t, r.Next());
  }
  return doc;
}

std::string EncodeRegisterBody(const RegisterDoc& doc) {
  std::string out;
  xml::TokenWriter w(&out);
  w.Start("register");
  w.Attr("server", doc.server);
  w.Attr("name", doc.name);
  w.Attr("ttl", doc.ttl);
  for (const auto& e : doc.entries) {
    w.Start("entry");
    w.Attr("level", e.level);
    w.Attr("area", e.area);
    if (!e.xpath.empty()) w.Attr("xpath", e.xpath);
    if (e.delay != 0) w.Attr("delay", e.delay);
    w.End();
  }
  for (const auto& n : doc.named) {
    w.Start("named");
    w.Attr("urn", n.urn);
    w.Attr("xpath", n.xpath);
    w.End();
  }
  for (const auto& st : doc.statements) {
    w.Start("statement");
    w.Text(st);
    w.End();
  }
  w.End();
  return out;
}

}  // namespace

void Peer::JoinNetwork() {
  // This peer's holdings, in OwnSyncEntries' order, and its statements;
  // one shared buffer for every registration target.
  RegisterDoc doc;
  doc.server = address();
  doc.name = options_.name;
  doc.ttl = 2;
  for (const catalog::SyncEntry& se : OwnSyncEntries()) {
    if (se.kind == catalog::SyncEntryKind::kNamed) {
      doc.named.push_back(RegisterNamed{se.urn, se.entry.xpath});
    } else {
      doc.entries.push_back(RegisterEntry{
          std::string(catalog::HoldingLevelName(se.entry.level)),
          se.entry.area.ToString(), se.entry.xpath});
    }
  }
  for (const auto& st : own_statements_) {
    doc.statements.push_back(st.ToString());
  }
  const net::Payload payload = net::MakePayload(EncodeRegisterBody(doc));
  std::unordered_set<std::string> targets(bootstraps_.begin(),
                                          bootstraps_.end());
  // Also register with index servers already known to the catalog whose
  // area overlaps ours (§3.3: push to covering authoritative servers).
  catalog_.ForEachEntry([&](const catalog::IndexEntry& e) {
    if (e.level == catalog::HoldingLevel::kIndex && e.server != address() &&
        e.area.Overlaps(options_.interest)) {
      targets.insert(e.server);
    }
  });
  for (const auto& t : targets) {
    auto pid = sim_->Lookup(t);
    if (!pid.ok() || *pid == id_) continue;
    wire::Send(sim_, id_, *pid, {kRegisterKind, "", 0, payload});
  }
}

void Peer::HandleRegister(const wire::Envelope& env) {
  ++counters_.registrations_received;
  if (!options_.roles.index && !options_.roles.meta_index) return;
  auto parsed = ParseRegisterBody(env.body());
  if (!parsed.ok()) {
    Count(&PeerCounters::decode_rejects);
    return;
  }
  RegisterDoc reg = std::move(parsed).value();
  const std::string& sender = reg.server;
  if (sender.empty()) return;
  bool stored = false;
  for (const RegisterEntry& e : reg.entries) {
    auto area = ns::InterestArea::Parse(e.area);
    if (!area.ok()) continue;
    // Index/meta servers track servers whose areas overlap their own
    // (§3.2). An empty own-interest means "cover everything".
    if (!options_.interest.empty() &&
        !options_.interest.Overlaps(*area)) {
      continue;
    }
    catalog::IndexEntry entry;
    entry.area = std::move(area).value();
    entry.server = sender;
    const bool entry_is_index = e.level == "index";
    if (options_.roles.meta_index && !options_.roles.index) {
      // Meta-index servers keep only namespace-level referrals: the MQP
      // must travel to the registered server for detail (§3.2).
      entry.level = catalog::HoldingLevel::kIndex;
    } else {
      entry.level = entry_is_index ? catalog::HoldingLevel::kIndex
                                   : catalog::HoldingLevel::kBase;
      entry.xpath = e.xpath;
    }
    entry.delay_minutes = e.delay;
    catalog_.AddEntry(std::move(entry));
    stored = true;
  }
  for (const RegisterNamed& n : reg.named) {
    if (n.urn.empty()) continue;
    if (options_.roles.meta_index && !options_.roles.index) {
      catalog_.AddNamedReferral(n.urn, sender);
    } else {
      catalog_.AddNamedMapping(n.urn, sender, n.xpath);
    }
    stored = true;
  }
  for (const std::string& s : reg.statements) {
    auto st = catalog::IntensionalStatement::Parse(s);
    if (st.ok()) catalog_.AddStatement(std::move(st).value());
  }
  // Authoritative servers propagate registrations upward so higher-level
  // meta-indexes learn about coverage (§3.3), bounded by a TTL. Only
  // index-level entries travel: the meta level tracks servers, not
  // collections or named resources (§3.2).
  if (stored && options_.roles.authoritative && reg.ttl > 0) {
    RegisterDoc fwd = std::move(reg);
    --fwd.ttl;
    std::erase_if(fwd.entries,
                  [](const RegisterEntry& e) { return e.level != "index"; });
    fwd.named.clear();
    if (!fwd.entries.empty()) {
      const net::Payload payload = net::MakePayload(EncodeRegisterBody(fwd));
      for (const auto& b : bootstraps_) {
        auto pid = sim_->Lookup(b);
        if (pid.ok() && *pid != id_) {
          wire::Send(sim_, id_, *pid, {kRegisterKind, "", 0, payload});
        }
      }
    }
  }
}

// --- category service (§3.5) ------------------------------------------------------

void Peer::RequestCategories(const std::string& server,
                             const std::string& dimension,
                             const std::string& path,
                             CategoryCallback cb) {
  const std::string req =
      options_.name + "-c" + std::to_string(next_query_++);
  category_waiters_[req] = std::move(cb);
  std::string body;
  xml::TokenWriter w(&body);
  w.Start("cat-query");
  w.Attr("dim", dimension);
  w.Attr("path", path);
  w.Attr("reply-to", address());
  w.End();
  auto pid = sim_->Lookup(server);
  if (!pid.ok()) return;
  wire::Send(sim_, id_, *pid,
             {kCategoryQueryKind, req, 0, net::MakePayload(std::move(body))});
}

void Peer::HandleCategoryQuery(const wire::Envelope& env, net::PeerId from) {
  if (!options_.roles.category || hierarchies_ == nullptr) return;
  xml::AttrList q;
  if (!wire::DecodeAttrBody(env.body(), &q).ok()) {
    Count(&PeerCounters::decode_rejects);
    return;
  }
  std::string reply;
  xml::TokenWriter w(&reply);
  w.Start("cat-reply");
  auto dim = hierarchies_->DimensionIndex(q.Get("dim"));
  if (dim.ok()) {
    auto path = ns::CategoryPath::Parse(q.Get("path", "*"));
    if (path.ok()) {
      for (const auto& child :
           hierarchies_->dimension(*dim).ChildrenOf(*path)) {
        w.Start("cat");
        w.Text(child.ToString());
        w.End();
      }
    }
  }
  w.End();
  auto pid = sim_->Lookup(q.Get("reply-to"));
  if (!pid.ok()) pid = Result<net::PeerId>(from);
  wire::Send(sim_, id_, *pid,
             {kCategoryReplyKind, env.query_id, 0,
              net::MakePayload(std::move(reply))});
}

// --- fetch service (pull; used by baselines & index pull) --------------------------

namespace {

// Parses the tk-* request attributes shared by bounded fetches and
// subquery annotations into a (spec, bound, leaf, cont, batch) tuple.
struct TopKRequest {
  engine::TopKSpec spec;
  engine::TopKBoundRef bound;
  uint32_t leaf = 0;
  uint64_t cont = 0;
  uint64_t batch = 0;
};

uint64_t AttrU64(const xml::AttrList& attrs, std::string_view key,
                 uint64_t fallback) {
  const std::string* s = attrs.Find(key);
  if (s == nullptr) return fallback;
  int64_t v = 0;
  if (!mqp::ParseInt64(*s, &v) || v < 0) return fallback;
  return static_cast<uint64_t>(v);
}

bool ParseTopKRequest(const xml::AttrList& attrs, TopKRequest* out) {
  const std::string* field = attrs.Find("tk-field");
  if (field == nullptr || field->empty()) return false;
  out->spec.field = *field;
  out->spec.ascending = attrs.Get("tk-order", "asc") != "desc";
  out->spec.k = AttrU64(attrs, "tk-k", 0);
  out->batch = AttrU64(attrs, "tk-batch", 0);
  out->cont = AttrU64(attrs, "tk-cont", 0);
  out->leaf = static_cast<uint32_t>(AttrU64(attrs, "tk-leaf", 0));
  if (const std::string* bkey = attrs.Find("tk-bkey")) {
    out->bound.present = true;
    out->bound.key = *bkey;
    out->bound.leaf = static_cast<uint32_t>(AttrU64(attrs, "tk-bleaf", 0));
  }
  return out->spec.k > 0;
}

// Emits a bounded top-k reply: the slice's continuation attributes on the
// wrapper element, then the shipped items in score order. The reply
// echoes the request's deadline/attempt so PR 8's fault plans treat each
// (cont, attempt) slice as a distinct, idempotently retryable exchange.
void SendTopKReply(net::Transport* sim, net::PeerId self, net::PeerId to,
                   const char* root_tag, const std::string& server,
                   const wire::Envelope& env, const algebra::ItemSet& items,
                   const engine::TopKSlice& slice) {
  std::string reply;
  xml::TokenWriter w(&reply);
  w.Start(root_tag);
  w.Attr("server", server);
  w.Attr("tk", "1");
  w.Attr("total", slice.total);
  w.Attr("cont", slice.next_cont);
  w.Attr("more", slice.more ? "1" : "0");
  if (slice.more) w.Attr("next", slice.next_key);
  for (size_t idx : slice.ship) {
    w.Write(*items[idx]);
  }
  w.End();
  wire::Send(sim, self, to,
             {env.kind == kFetchKind ? kFetchReplyKind : kSubqueryReplyKind,
              env.query_id, 0, net::MakePayload(std::move(reply)),
              env.deadline, env.attempt});
}

}  // namespace

void Peer::HandleFetch(const wire::Envelope& env, net::PeerId from) {
  const EngineTally tally(this);
  xml::AttrList attrs;
  if (!wire::DecodeAttrBody(env.body(), &attrs).ok()) {
    Count(&PeerCounters::decode_rejects);
    return;
  }
  auto items = store_.Fetch(address(), attrs.Get("xpath"));
  TopKRequest req;
  if (items.ok() && ParseTopKRequest(attrs, &req)) {
    // Bounded path: ship only the score-ordered prefix the coordinator's
    // current bound leaves eligible, from the continuation offset on.
    const engine::TopKSlice slice = engine::BoundedPrefix(
        *items, req.spec, req.bound, req.leaf, req.cont, req.batch);
    SendTopKReply(sim_, id_, from, "fetch-reply", address(), env, *items,
                  slice);
    return;
  }
  std::string reply;
  xml::TokenWriter w(&reply);
  w.Start("fetch-reply");
  w.Attr("server", address());
  if (items.ok()) {
    for (const auto& item : *items) {
      w.Write(*item);
    }
  }
  w.End();
  wire::Send(sim_, id_, from,
             {kFetchReplyKind, env.query_id, 0,
              net::MakePayload(std::move(reply))});
}

// --- subquery service (coordinator-style distributed QP, baseline C2) ------------

void Peer::HandleSubquery(const wire::Envelope& env, net::PeerId from) {
  const EngineTally tally(this);
  // Subquery evaluation honors the requesting query's remaining deadline
  // (DESIGN.md §11); an exhausted budget yields the empty reply below,
  // which the coordinator's deadline/retry machinery already handles.
  const engine::ScopedEvalBudget budget(EvalLimitsFor(env.deadline));
  // The body is the sub-plan's <mqp> document itself (the coordinator
  // stopped wrapping it; correlation rides in the envelope header).
  auto plan = DecodePlan(env.payload);
  if (!plan.ok()) {
    Count(&PeerCounters::reply_decode_failures);
  } else if (plan->root() != nullptr) {
    // A bound-stamped root marks a bounded top-k request: evaluate the
    // sub-plan, then ship only the eligible score-ordered slice.
    const auto& topk = std::as_const(*plan->root()).annotations().topk;
    if (topk.has_value() && topk->k > 0 && !topk->order_field.empty()) {
      auto items = engine::Evaluate(*plan->root(), &store_);
      if (items.ok()) {
        engine::TopKSpec spec{topk->order_field, topk->ascending, topk->k};
        engine::TopKBoundRef bound;
        if (topk->has_bound) {
          bound.present = true;
          bound.key = topk->bound_key;
          bound.leaf = topk->bound_leaf;
        }
        const engine::TopKSlice slice = engine::BoundedPrefix(
            *items, spec, bound, topk->leaf, topk->cont, topk->batch);
        SendTopKReply(sim_, id_, from, "subquery-reply", address(), env,
                      *items, slice);
        return;
      }
    }
  }
  std::string reply;
  xml::TokenWriter w(&reply);
  w.Start("subquery-reply");
  w.Attr("server", address());
  if (plan.ok() && plan->root() != nullptr) {
    // An evaluation failure yields an empty reply; the old error
    // attribute was write-only diagnostics no receiver ever read.
    auto items = engine::Evaluate(*plan->root(), &store_);
    if (items.ok()) {
      for (const auto& item : *items) {
        w.Write(*item);
      }
    }
  }
  w.End();
  wire::Send(sim_, id_, from,
             {kSubqueryReplyKind, env.query_id, 0,
              net::MakePayload(std::move(reply))});
}

// --- distributed top-k coordinator (DESIGN.md §10) ---------------------------------

namespace {

// DFS through non-distinct unions, collecting the TopN input's frontier
// in left-to-right order (the leaf numbering every participant shares).
// False on a repeated node: DAG sharing makes leaf positions ambiguous.
bool CollectTopKFrontier(const PlanNodePtr& node, algebra::NodeMarks* seen,
                         std::vector<PlanNodePtr>* out) {
  if (!seen->Insert(node.get())) return false;
  if (node->type() == OpType::kUnion && !node->distinct()) {
    for (const auto& c : node->children()) {
      if (!CollectTopKFrontier(c, seen, out)) return false;
    }
    return true;
  }
  out->push_back(node);
  return true;
}

}  // namespace

void Peer::TruncateForTopK(const PlanNode& node, algebra::ItemSet* items) {
  const auto& topk = std::as_const(node).annotations().topk;
  if (!topk.has_value() || topk->k == 0 || topk->order_field.empty()) return;
  const engine::TopKSpec spec{topk->order_field, topk->ascending, topk->k};
  engine::TopKBoundRef bound;
  if (topk->has_bound) {
    bound.present = true;
    bound.key = topk->bound_key;
    bound.leaf = topk->bound_leaf;
  }
  *items = engine::TopKTruncate(*items, spec, bound, topk->leaf);
}

bool Peer::MaybeStartTopKSession(Plan* plan, uint32_t hops, double deadline,
                                 uint32_t attempt) {
  if (!optimizer::use_distributed_topk()) return false;
  if (plan->root() == nullptr || plan->query_id().empty()) return false;
  // Find the consumer TopN under the display/projection wrappers.
  PlanNode* topn = plan->root().get();
  while (topn->type() == OpType::kDisplay ||
         topn->type() == OpType::kProject) {
    if (topn->children().size() != 1) return false;
    topn = topn->child(0).get();
  }
  if (topn->type() != OpType::kTopN || !topn->has_limit() ||
      topn->limit() == 0 || topn->order_field().empty() ||
      topn->children().empty()) {
    return false;
  }
  std::vector<PlanNodePtr> frontier;
  {
    algebra::NodeMarks seen;
    if (!CollectTopKFrontier(topn->child(0), &seen, &frontier)) return false;
  }
  // Classify the frontier: constants will pre-load the merge;
  // bound-stamped remote sub-plans become streamed sources; anything else
  // (an unresolved URN, an unstamped remote branch, a distinct union)
  // means this peer cannot finish the merge — route the plan normally.
  // Constants are read only once the session is sure to start: a walk
  // that merely passes through leaves its carried data unbuilt.
  const engine::TopKSpec spec{topn->order_field(), topn->ascending(),
                              topn->limit()};
  TopKSession s;
  s.spec = spec;
  std::vector<uint64_t> cards;
  uint64_t total_card = 0;
  bool all_cards = true;
  for (size_t li = 0; li < frontier.size(); ++li) {
    const PlanNodePtr& node = frontier[li];
    const auto leaf = static_cast<uint32_t>(li);
    if (node->IsConstant()) continue;
    const auto& topk = std::as_const(*node).annotations().topk;
    if (!topk.has_value() || topk->order_field != spec.field ||
        topk->ascending != spec.ascending || topk->k != spec.k) {
      return false;
    }
    TopKSource src;
    src.node = node;
    src.leaf = leaf;
    if (node->type() == OpType::kUrl) {
      src.is_fetch = true;
      src.server = node->url();
      src.xpath = node->xpath();
    } else {
      // One server must answer the whole sub-plan: no URN, one URL host.
      bool single_server = true;
      algebra::ForEachNode(node.get(), [&](const PlanNode* n) {
        if (n->type() == OpType::kUrn) {
          single_server = false;
        } else if (n->type() == OpType::kUrl) {
          if (src.server.empty()) {
            src.server = n->url();
          } else if (src.server != n->url()) {
            single_server = false;
          }
        }
      });
      if (!single_server) return false;
    }
    if (src.server.empty()) return false;
    const auto& card = std::as_const(*node).annotations().cardinality;
    if (card.has_value()) {
      cards.push_back(*card);
      total_card += *card;
    } else {
      cards.push_back(0);
      all_cards = false;
    }
    s.sources.push_back(std::move(src));
  }
  if (s.sources.empty()) return false;
  // Every source server must be reachable right now; otherwise leave the
  // plan to normal routing and its failover machinery.
  for (const auto& src : s.sources) {
    auto pid = sim_->Lookup(src.server);
    if (!pid.ok() || sim_->IsFailed(*pid)) return false;
  }
  // The (key, leaf, idx) order is total, so preloading after the
  // classification keeps exactly the rows preloading during it kept.
  s.heap = std::make_unique<engine::TopKHeap>(spec.k, spec.ascending);
  engine::FieldAccessor key(spec.field);
  for (size_t li = 0; li < frontier.size(); ++li) {
    if (!frontier[li]->IsConstant()) continue;
    uint64_t idx = 0;
    for (const auto& item : frontier[li]->items()) {
      s.heap->Push(key.Eval(*item).value_or(std::string_view()),
                   static_cast<uint32_t>(li), idx++, item);
    }
  }
  // Initial windows: each source's expected contribution to the top k —
  // proportional to catalog cardinalities when every source carries one,
  // else an even split — oversampled 2x (a second round costs a full
  // RTT, so mild over-asking is the cheaper error) and capped at k (no
  // source ever needs to ship more; its k+1-th row is beaten by k
  // same-leaf rows).
  const size_t fan = s.sources.size();
  for (size_t i = 0; i < fan; ++i) {
    uint64_t b;
    if (all_cards && total_card > 0) {
      b = static_cast<uint64_t>(
          std::llround(2.0 * static_cast<double>(spec.k) *
                       static_cast<double>(cards[i]) /
                       static_cast<double>(total_card)));
    } else {
      b = (2 * spec.k + fan - 1) / fan;
    }
    s.sources[i].batch = std::clamp<uint64_t>(b, 1, spec.k);
  }
  const std::string qid = plan->query_id();
  if (auto pit = pending_.find(qid); pit != pending_.end()) {
    // Coordinating our own query: the streamed sources hold per-slice
    // work a cancel should reach.
    for (const auto& src : s.sources) {
      pit->second.contacted.insert(src.server);
    }
  }
  s.plan = std::move(*plan);
  s.topn = topn;
  s.hops = hops;
  s.deadline = deadline;
  s.attempt = attempt;
  s.generation = next_topk_generation_++;
  // A retry supersedes the previous attempt's session outright; the old
  // attempt's in-flight replies die on the attempt check.
  topk_sessions_.erase(qid);
  auto [it, inserted] = topk_sessions_.emplace(qid, std::move(s));
  if (deadline > 0) {
    const uint64_t gen = it->second.generation;
    sim_->ScheduleFor(id_, deadline,
                      [this, qid, gen]() { OnTopKDeadline(qid, gen); });
  }
  const size_t n = it->second.sources.size();
  for (size_t i = 0; i < n; ++i) {
    SendTopKRequest(qid, i);
  }
  return true;
}

void Peer::SendTopKRequest(const std::string& query_id, size_t idx) {
  auto it = topk_sessions_.find(query_id);
  if (it == topk_sessions_.end()) return;
  TopKSession& s = it->second;
  TopKSource& src = s.sources[idx];
  auto pid = sim_->Lookup(src.server);
  if (!pid.ok()) return;  // stalled source: the deadline timer cleans up
  // The correlation id carries the session, the source, and the
  // continuation offset — a retried slice is idempotent because a reply
  // for any cont other than the source's current one is dropped.
  const std::string rid = query_id + "#tk" + std::to_string(src.leaf) + "." +
                          std::to_string(src.cont);
  const engine::TopKBoundRef bound =
      s.heap->full() ? s.heap->Bound() : engine::TopKBoundRef{};
  if (src.is_fetch) {
    std::string body;
    xml::TokenWriter w(&body);
    w.Start("fetch");
    w.Attr("xpath", src.xpath);
    w.Attr("tk-field", s.spec.field);
    w.Attr("tk-order", s.spec.ascending ? "asc" : "desc");
    w.Attr("tk-k", s.spec.k);
    w.Attr("tk-batch", src.batch);
    w.Attr("tk-cont", src.cont);
    w.Attr("tk-leaf", src.leaf);
    if (bound.present) {
      w.Attr("tk-bkey", bound.key);
      w.Attr("tk-bleaf", bound.leaf);
    }
    w.End();
    wire::Send(sim_, id_, *pid,
               {kFetchKind, rid, 0, net::MakePayload(std::move(body)),
                s.deadline, s.attempt});
    return;
  }
  // Subquery source: refresh the annotation's continuation state and
  // bound, then ship the sub-plan document itself.
  algebra::TopKBound ann;
  ann.order_field = s.spec.field;
  ann.ascending = s.spec.ascending;
  ann.k = s.spec.k;
  ann.batch = src.batch;
  ann.cont = src.cont;
  ann.leaf = src.leaf;
  if (bound.present) {
    ann.has_bound = true;
    ann.bound_key = bound.key;
    ann.bound_leaf = bound.leaf;
  }
  if (std::as_const(*src.node).annotations().topk != ann) {
    src.node->annotations().topk = std::move(ann);
  }
  algebra::Plan sub;
  sub.set_root(src.node);
  wire::Send(sim_, id_, *pid,
             {kSubqueryKind, rid, 0, PlanBody(sub), s.deadline, s.attempt});
}

void Peer::HandleBoundedReply(const wire::Envelope& env) {
  const std::string& rid = env.query_id;
  const size_t marker = rid.rfind("#tk");
  const auto count_unmatched = [this]() {
    Count(&PeerCounters::unmatched_replies);
  };
  if (marker == std::string::npos) {
    count_unmatched();
    return;
  }
  const std::string qid = rid.substr(0, marker);
  const std::string suffix = rid.substr(marker + 3);
  const size_t dot = suffix.find('.');
  int64_t leaf = -1;
  int64_t cont = -1;
  if (dot == std::string::npos ||
      !mqp::ParseInt64(suffix.substr(0, dot), &leaf) ||
      !mqp::ParseInt64(suffix.substr(dot + 1), &cont) || leaf < 0 ||
      cont < 0) {
    count_unmatched();
    return;
  }
  auto it = topk_sessions_.find(qid);
  if (it == topk_sessions_.end()) {
    // Late replies for a recently finished session are expected noise
    // (the terminating round's losers); anything else is unaccounted.
    if (!topk_done_.Contains(qid)) count_unmatched();
    return;
  }
  TopKSession& s = it->second;
  if (env.attempt != s.attempt) return;  // a superseded attempt's reply
  size_t idx = s.sources.size();
  for (size_t i = 0; i < s.sources.size(); ++i) {
    if (s.sources[i].leaf == static_cast<uint32_t>(leaf)) {
      idx = i;
      break;
    }
  }
  if (idx == s.sources.size()) {
    count_unmatched();
    return;
  }
  const TopKSource& src = s.sources[idx];
  // Duplicate or stale slice (a fault-plan re-delivery, or a reply that
  // raced its own retry): the continuation offset identifies the one
  // slice the source is waiting for.
  if (src.done || src.cont != static_cast<uint64_t>(cont)) return;
  MergeTopKBatch(qid, idx, env);
}

void Peer::MergeTopKBatch(const std::string& query_id, size_t idx,
                          const wire::Envelope& env) {
  const EngineTally tally(this);
  auto sit = topk_sessions_.find(query_id);
  if (sit == topk_sessions_.end()) return;
  TopKSession& s = sit->second;
  TopKSource& src = s.sources[idx];
  auto decoded = wire::DecodeItemBodyWithAttrs(env.body());
  if (!decoded.ok()) {
    Count(&PeerCounters::reply_decode_failures);
    return;  // the session stalls; the deadline timer (or a retry) recovers
  }
  const wire::ItemBody body = std::move(decoded).value();
  engine::FieldAccessor key(s.spec.field);
  uint64_t accepted = 0;
  uint64_t seq = 0;
  for (const auto& item : body.items) {
    const std::string_view k = key.Eval(*item).value_or(std::string_view());
    if (s.heap->WouldAccept(k, src.leaf)) ++accepted;
    s.heap->Push(k, src.leaf, src.cont + seq, item);
    ++seq;
  }
  const uint64_t shipped = body.items.size();
  src.received_rows += shipped;
  src.received_bytes += env.body().size();
  src.total = AttrU64(body.attrs, "total", src.total);
  src.cont = AttrU64(body.attrs, "cont", src.cont + shipped);
  const bool more = AttrU64(body.attrs, "more", 0) != 0;
  Count(&PeerCounters::topk_batches);
  if (!more) {
    src.done = true;
  } else if (s.heap->full()) {
    // Threshold test (the ADiT termination): the server's next eligible
    // key rides in the reply — if the heap's k-th entry already beats
    // it, nothing further from this source can win. The server never
    // sees the terminal slice, so the rows it still holds are credited
    // here (disjoint from BoundedPrefix's terminal-slice credit).
    const std::string* next = body.attrs.Find("next");
    if (next != nullptr && !s.heap->WouldAccept(*next, src.leaf)) {
      src.done = true;
      src.terminated_early = true;
      Count(&PeerCounters::topk_early_terminations);
      if (src.total > src.received_rows) {
        const uint64_t pruned = src.total - src.received_rows;
        Count(&PeerCounters::topk_rows_pruned, pruned);
      }
    }
  }
  if (!src.done) {
    // Adapt the next window. With a full heap, a catalog histogram for
    // the order field turns the bound into a direct estimate of how many
    // rows at the server can still win; without one, fall back to
    // multiplicative adaptation on the observed acceptance rate.
    const uint64_t cap = s.spec.k > 0 ? s.spec.k : 1;
    const uint64_t lo = std::min<uint64_t>(4, cap);
    uint64_t batch = src.batch;
    bool refined = false;
    if (s.heap->full() && src.total > 0) {
      const engine::TopKBoundRef bound = s.heap->Bound();
      const algebra::FieldHistogram* hist =
          std::as_const(*src.node).annotations().HistogramFor(s.spec.field);
      if (hist != nullptr) {
        char* end = nullptr;
        const double v = std::strtod(bound.key.c_str(), &end);
        if (end != bound.key.c_str() && *end == '\0') {
          double frac = s.spec.ascending
                            ? hist->FractionBelow(v)
                            : 1.0 - hist->FractionBelow(v) -
                                  hist->FractionEquals(v);
          if (frac < 0) frac = 0;
          const auto useful = static_cast<uint64_t>(
              std::llround(frac * static_cast<double>(src.total)));
          batch = useful > src.received_rows ? useful - src.received_rows
                                             : lo;
          refined = true;
        }
      }
    }
    if (!refined && shipped > 0) {
      if (accepted * 2 >= shipped) {
        batch = src.batch * 2;
      } else if (accepted * 10 < shipped) {
        batch = src.batch / 2;
      }
    }
    src.batch = std::clamp<uint64_t>(batch, lo, cap);
    SendTopKRequest(query_id, idx);
    return;
  }
  for (const auto& other : s.sources) {
    if (!other.done) return;
  }
  FinishTopKSession(query_id);
}

void Peer::FinishTopKSession(const std::string& query_id) {
  auto it = topk_sessions_.find(query_id);
  if (it == topk_sessions_.end()) return;
  TopKSession s = std::move(it->second);
  topk_sessions_.erase(it);
  topk_done_.Insert(query_id);
  // Estimate what the bound kept off the wire: unshipped rows per source,
  // priced at that source's observed bytes-per-row (cost-model fallback
  // when a source shipped nothing). Benches measure real wire bytes; the
  // counter is the per-query attribution.
  for (const auto& src : s.sources) {
    if (src.total <= src.received_rows) continue;
    const uint64_t unshipped = src.total - src.received_rows;
    const double per_row =
        src.received_rows > 0
            ? static_cast<double>(src.received_bytes) /
                  static_cast<double>(src.received_rows)
            : options_.cost.avg_item_bytes;
    const auto saved = static_cast<uint64_t>(
        std::llround(per_row * static_cast<double>(unshipped)));
    Count(&PeerCounters::topk_bytes_saved, saved);
  }
  // The heap holds exactly the reference TopN's answer; morphing the TopN
  // to it and re-entering the Figure-2 loop finishes the plan (remaining
  // wrappers evaluate over constants, then delivery).
  s.topn->MorphToData(s.heap->Finish());
  ProcessPlan(std::move(s.plan), s.hops, s.deadline, s.attempt);
}

void Peer::OnTopKDeadline(const std::string& query_id, uint64_t generation) {
  auto it = topk_sessions_.find(query_id);
  if (it == topk_sessions_.end() || it->second.generation != generation) {
    return;  // the session finished (or was superseded) before the timer
  }
  TopKSession s = std::move(it->second);
  topk_sessions_.erase(it);
  topk_done_.Insert(query_id);
  // The TopN stays unmorphed — ProcessPlan's deadline branch force-
  // evaluates what it can and delivers the partial (PR 8 semantics: the
  // client's retry machinery sees an incomplete plan and takes over).
  ProcessPlan(std::move(s.plan), s.hops, s.deadline, s.attempt);
}

// --- overload protection (DESIGN.md §11) -------------------------------------------

void Peer::HandleMqp(const wire::Envelope& env) {
  // hop_dom_nodes_built spans the entire hop — decode through forward —
  // so a pure routing hop can be asserted to build zero xml::Nodes.
  const uint64_t nodes_before = xml::DomNodesBuilt();
  auto parsed = DecodePlan(env.payload);
  if (!parsed.ok()) {  // malformed plans are dropped
    Count(&PeerCounters::decode_rejects);
    return;
  }
  ++counters_.plans_received;
  Plan plan = std::move(parsed).value();
  const OverloadOptions& ov = options_.overload;
  if (OverloadActive() && cancelled_.Contains(plan.query_id())) {
    // The client already tore this query down; servicing it is waste.
    Count(&PeerCounters::cancelled_sessions_reaped);
    counters_.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
    return;
  }
  if (ov.service_rate_qps <= 0) {
    // No service-time model: process at arrival (the pre-§11 path —
    // default traces stay byte-identical).
    ProcessPlan(std::move(plan), env.hops, env.deadline, env.attempt);
    counters_.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
    return;
  }
  // The modeled core serves one plan per 1/rate seconds; arrivals queue
  // behind busy_until_. The model runs even when the protection is
  // ablated — it is the hardware, not the policy; the policy is deciding
  // *not* to join a hopeless queue.
  const double now = sim_->now();
  const double start = std::max(now, busy_until_);
  if (OverloadActive() && env.deadline > 0 &&
      start + 1.0 / ov.service_rate_qps > env.deadline) {
    // Even served next, this plan's results would leave past its
    // deadline. Refuse instead of burning a core slot on a query nobody
    // will wait for: the partial evaluated so far goes back *now* —
    // before the client's own deadline fires — and the kShed marker
    // quarantines this hop so a retry binds elsewhere.
    ShedPlan(std::move(plan), env.deadline, env.attempt);
    counters_.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
    return;
  }
  if (OverloadActive() &&
      ShouldShed(start - now, plan.policy().priority, plan.query_id(),
                 env.attempt)) {
    ShedPlan(std::move(plan), env.deadline, env.attempt);
    counters_.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
    return;
  }
  // The plan occupies the core for [start, start + 1/rate) and its
  // results leave at service *completion* — a lone plan on an idle peer
  // still costs one service time, not zero (M/D/1, not a pure queue).
  busy_until_ = start + 1.0 / ov.service_rate_qps;
  sim_->ScheduleFor(
      id_, busy_until_,
      [this, p = std::move(plan), hops = env.hops, deadline = env.deadline,
       attempt = env.attempt]() mutable {
        if (OverloadActive() && cancelled_.Contains(p.query_id())) {
          // Cancelled while queued: reap instead of serving.
          Count(&PeerCounters::cancelled_sessions_reaped);
          return;
        }
        const uint64_t nb = xml::DomNodesBuilt();
        ProcessPlan(std::move(p), hops, deadline, attempt);
        counters_.hop_dom_nodes_built += xml::DomNodesBuilt() - nb;
      });
  counters_.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
}

bool Peer::ShouldShed(double projected_delay, uint32_t priority,
                      const std::string& query_id, uint32_t attempt) {
  const OverloadOptions& ov = options_.overload;
  if (ov.shed_delay_seconds <= 0) return false;
  if (priority > 0) {
    // High-priority traffic is refused only past the hard ceiling —
    // beyond it, admitting more would starve everything already queued.
    return projected_delay >= ov.shed_delay_seconds * kHighPriorityCeiling;
  }
  if (projected_delay >= ov.shed_delay_seconds) return true;
  const double knee = kEarlyShedFraction * ov.shed_delay_seconds;
  if (projected_delay <= knee) return false;
  // RED-style gray zone: shed with probability ramping linearly from 0
  // at the knee to 1 at the watermark, so pressure is released gradually
  // instead of oscillating around a hard edge. The coin is a pure
  // function of (seed, query id, attempt) — every backend, and every
  // rerun, flips it the same way.
  const double p = (projected_delay - knee) / (ov.shed_delay_seconds - knee);
  uint64_t h = Fnv1a(kFnvOffset, ov.seed);
  h = Fnv1a(h, query_id);
  h = Fnv1a(h, static_cast<uint64_t>(attempt));
  const double coin = static_cast<double>(h % 1000000ULL) / 1e6;
  return coin < p;
}

void Peer::ShedPlan(Plan plan, double deadline, uint32_t attempt) {
  Count(&PeerCounters::queries_shed);
  // The marker is recorded even when provenance is otherwise ablated: it
  // is the wire signal the client's failover keys on (quarantine the hot
  // server, rebind elsewhere), not an audit note.
  AddProvenance(&plan, ProvenanceAction::kShed, "overload");
  DeliverToTarget(std::move(plan), deadline, attempt);
}

engine::EvalLimits Peer::EvalLimitsFor(double deadline) const {
  engine::EvalLimits lim;
  if (!OverloadActive()) return lim;
  const OverloadOptions& ov = options_.overload;
  if (ov.budget_rows_per_second > 0 && deadline > 0) {
    // Remaining virtual time converts to a deterministic row allowance
    // (a wall-clock cap would differ run to run); the floor keeps tiny
    // salvage evaluations finishable even at the deadline's edge.
    const double remaining = deadline - sim_->now();
    uint64_t rows = 0;
    if (remaining > 0) {
      rows = static_cast<uint64_t>(
          remaining * static_cast<double>(ov.budget_rows_per_second));
    }
    lim.max_rows = std::max(rows, ov.min_budget_rows);
  }
  return lim;
}

void Peer::SendCancels(const std::string& query_id, const Pending& p) {
  // Fan out to every server this query's attempts touched: the first
  // hops it was forwarded to, plus everything the best partial's
  // provenance names (servers later hops pulled in).
  std::set<std::string> targets = p.contacted;
  if (p.best_partial != nullptr) {
    for (const auto& e : p.best_partial->provenance.entries()) {
      targets.insert(e.server);
    }
  }
  targets.erase(address());
  for (const auto& t : targets) {
    auto pid = sim_->Lookup(t);
    if (!pid.ok() || *pid == id_) continue;
    Count(&PeerCounters::cancels_sent);
    wire::Send(sim_, id_, *pid, {kCancelKind, query_id, 0, net::Payload()});
  }
}

void Peer::HandleCancel(const wire::Envelope& env) {
  if (!OverloadActive()) return;
  const std::string& qid = env.query_id;
  if (qid.empty()) return;
  // Idempotent under FaultInjector duplication: only the first copy of a
  // cancel does any work.
  if (!cancelled_.Insert(qid)) return;
  auto it = topk_sessions_.find(qid);
  if (it != topk_sessions_.end()) {
    topk_sessions_.erase(it);
    topk_done_.Insert(qid);
    Count(&PeerCounters::cancelled_sessions_reaped);
  }
}

}  // namespace mqp::peer
