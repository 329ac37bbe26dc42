#include "peer/peer.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "algebra/walk.h"
#include "common/strings.h"
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
using algebra::ProvenanceAction;

namespace {

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

EngineTally::EngineTally(CounterSink* sink)
    : sink_(sink), before_(engine::Stats()) {
  ++sink_->engine_tally_depth_;
}

EngineTally::~EngineTally() {
  if (--sink_->engine_tally_depth_ > 0) return;
  sink_->Count(EngineDeltas(engine::Stats(), before_));
}

net::Payload PlanBody(const Plan& plan, CounterSink* counts) {
  PeerReportedCounters deltas;
  auto serialized = wire::SerializePlanShared(plan, &deltas);
  counts->Count(deltas);
  return std::move(serialized.bytes);
}

Peer::Peer(net::Transport* sim, PeerOptions options)
    : sim_(sim),
      id_(sim->Register(this)),
      options_(std::move(options)),
      counts_(sim),
      client_(sim, id_, options_, &counts_, ResumeLoop()),
      topk_(sim, id_, options_.cost, &counts_, ResumeLoop()),
      admission_(sim, options_.overload, &counts_) {
  if (options_.name.empty()) {
    options_.name = "peer-" + std::to_string(id_);
  }
  catalog_.set_dimension_fields(options_.dimension_fields);
  catalog_.SetAuthority(options_.interest, options_.roles.authoritative);
  catalog_.set_owner(address());
}

Resume Peer::ResumeLoop() {
  return [this](Plan plan, uint32_t hops, double deadline, uint32_t attempt) {
    ProcessPlan(std::move(plan), hops, deadline, attempt);
  };
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
               {wire::kFetchKind, req, 0, net::MakePayload(std::move(body))});
  }
}

void Peer::HandleFetchReply(const wire::Envelope& env) {
  const std::string& req = env.query_id;
  auto it = pending_pulls_.find(req);
  if (it == pending_pulls_.end()) {
    counts_.Count(&PeerCounters::unmatched_replies);
    return;
  }
  auto decoded = wire::DecodeItemBody(env.body());
  if (!decoded.ok()) {
    counts_.Count(&PeerCounters::reply_decode_failures);
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
  std::string qid = options_.name + "-q" + std::to_string(next_query_++);
  client_.Submit(qid, std::move(plan), std::move(cb));
  return qid;
}

std::vector<std::string> Peer::CheckInvariants() const {
  std::vector<std::string> violations = client_.CheckInvariants();
  for (std::string& v : topk_.CheckInvariants()) {
    violations.push_back(std::move(v));
  }
  for (std::string& v : violations) v = options_.name + ": " + v;
  return violations;
}

void Peer::HandleMessage(const net::Message& msg) {
  auto decoded = wire::DecodeEnvelope(msg);
  if (!decoded.ok()) {  // malformed frames are dropped
    counts_.Count(&PeerCounters::decode_rejects);
    return;
  }
  const wire::Envelope env = std::move(decoded).value();
  if (env.kind == wire::kMqpKind) {
    HandleMqp(env);
  } else if (env.kind == wire::kCancelKind) {
    // Only the first copy of a cancel reaps the query's merge session.
    if (admission_.Cancel(env.query_id)) topk_.Cancel(env.query_id);
  } else if (env.kind == wire::kResultKind) {
    HandleResult(env);
  } else if (env.kind == wire::kRegisterKind) {
    HandleRegister(env);
  } else if (env.kind == wire::kCategoryQueryKind) {
    HandleCategoryQuery(env, msg.from);
  } else if (env.kind == wire::kFetchKind) {
    HandleFetch(env, msg.from);
  } else if (env.kind == wire::kSubqueryKind) {
    HandleSubquery(env, msg.from);
  } else if (env.kind == wire::kFetchReplyKind) {
    HandleFetchReply(env);
  } else if (env.kind == wire::kSubqueryReplyKind) {
    // The peer only sends subqueries as bounded top-k requests; every
    // subquery reply goes through the top-k demux.
    topk_.HandleReply(env);
  } else if (env.kind == wire::kCategoryReplyKind) {
    HandleCategoryReply(env);
  } else if (env.kind == wire::kSyncDigestKind) {
    if (sync_ != nullptr && !sync_->HandleDigest(env, msg.from)) {
      counts_.Count(&PeerCounters::decode_rejects);
    }
  } else if (env.kind == wire::kSyncDeltaKind) {
    if (sync_ != nullptr && !sync_->HandleDelta(env, msg.from)) {
      counts_.Count(&PeerCounters::decode_rejects);
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
    counts_.Count(&PeerCounters::decode_rejects);
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
  const EngineTally tally(&counts_);
  // Under the overload service model a plan whose deadline already passed
  // skips the whole resolve/optimize pass: RouteOrDeliver's deadline
  // branch salvages what it can under the floor budget and delivers the
  // partial — nobody is waiting for a better answer (DESIGN.md §11).
  if (admission_.Expired(deadline)) {
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
    const engine::ScopedEvalBudget budget(admission_.LimitsFor(deadline));
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
            if (client_.IsSuspect(server)) return true;
            auto spid = sim_->Lookup(server);
            return spid.ok() && sim_->IsFailed(*spid);
          });
      if (!filtered.empty() &&
          filtered.alternatives.size() < binding->alternatives.size()) {
        counts_.Count(&PeerCounters::failovers);
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
  counts_.values.urns_bound += bound;
  counts_.Count(ResolveDeltas(catalog_.resolve_stats(), before));
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
        ++counts_.values.subplans_deferred;
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
  counts_.values.subplans_evaluated += reduced;
  if (reduced > 0) MergeBoundedRuns(plan);
  return reduced;
}

void Peer::MergeBoundedRuns(Plan* plan) {
  algebra::ForEachNodePostOrder(plan->root().get(), [&](PlanNode* node) {
    const auto& topk = std::as_const(*node).annotations().topk;
    if (node->type() != OpType::kUnion || node->distinct() || !topk) return;
    const std::vector<algebra::PlanNodePtr>& in = node->children();
    for (size_t i = 0, end = 0; i < in.size(); i = end + 1) {
      uint64_t rows = 0;
      std::optional<int> stale;
      for (end = i; end < in.size() && in[end]->IsConstant(); ++end) {
        rows += in[end]->item_count();
        if (auto s = in[end]->annotations().staleness_minutes) {
          stale = std::max(stale.value_or(*s), *s);
        }
      }
      if (end - i < 2 || rows <= topk->k) continue;
      // Only adjacent inputs merge, in child order, so every row keeps
      // its place in the union's order and every tie-break stays.
      auto run = PlanNode::Union({in.begin() + i, in.begin() + end});
      run->annotations().topk = topk;
      run->annotations().staleness_minutes = stale;
      if (!ReduceSubplan(run.get())) continue;
      auto& out = node->mutable_children();
      out.erase(out.begin() + i + 1, out.begin() + end);
      out[i] = std::move(run);
      end = i + 1;
    }
  });
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
  counts_.values.subplans_evaluated += reduced;
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

Result<Plan> Peer::DecodePlan(const net::Payload& body) {
  PeerReportedCounters deltas;
  auto plan = wire::ParsePlanShared(body, &deltas);
  counts_.Count(deltas);
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
      // configured (past the deadline the allowance is the floor): reduce
      // the cheap parts, never burn the core scanning a large collection
      // nobody is still waiting for (DESIGN.md §11).
      const engine::ScopedEvalBudget budget(admission_.LimitsFor(deadline));
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
  if (topk_.MaybeStart(&plan, hops, deadline, attempt,
                       client_.Contacted(plan.query_id()))) {
    return;
  }
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
        client_.Suspect(cit->first);
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
        if (!avoided && !client_.IsSuspect(addr)) kept.emplace(addr, score);
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
    ++counts_.values.plans_dead_ended;
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
  auto pid = sim_->Lookup(best);
  if (!pid.ok() || (!best_unvisited &&
                    static_cast<int>(plan.provenance().size()) + 2 >=
                        options_.max_hops)) {
    // No such hop, or everything promising was already visited and we
    // are nearly out of hops: give up gracefully with a partial answer.
    ++counts_.values.plans_dead_ended;
    DeliverToTarget(std::move(plan), deadline, attempt);
    return;
  }
  if (routed_around) {
    // The plan made it past at least one dead/suspect server and is
    // still moving: one failover per routing decision.
    counts_.Count(&PeerCounters::failovers);
  }
  if (auto* contacted = client_.Contacted(plan.query_id())) {
    // This peer is the query's own client: remember the first hop so a
    // later cancel fan-out can reach the work (DESIGN.md §11).
    contacted->insert(best);
  }
  ++counts_.values.plans_forwarded;
  net::Payload body = PlanBody(plan, &counts_);
  wire::Send(sim_, id_, *pid,
             {wire::kMqpKind, plan.query_id(), hops + 1, std::move(body),
              deadline, attempt});
}

void Peer::DeliverToTarget(Plan plan, double deadline, uint32_t attempt) {
  const std::string target = plan.target();
  auto pid = sim_->Lookup(target);
  if (!pid.ok()) return;  // no deliverable target: drop
  net::Payload body = PlanBody(plan, &counts_);
  if (*pid == id_) {
    HandleResultPlan(std::move(plan), body->size());
    return;
  }
  ++counts_.values.results_delivered;
  // The attempt number rides along so each retry's result is a distinct
  // byte string under content-hash fault injection.
  wire::Send(sim_, id_, *pid,
             {wire::kResultKind, plan.query_id(), 0, std::move(body),
              deadline, attempt});
}

void Peer::HandleResult(const wire::Envelope& env) {
  // A result's items are built here, when the client reads them, so the
  // result hop is DOM-counted like an mqp hop.
  const uint64_t nodes_before = xml::DomNodesBuilt();
  auto plan = DecodePlan(env.payload);
  if (!plan.ok()) {
    counts_.Count(&PeerCounters::decode_rejects);
    return;
  }
  HandleResultPlan(std::move(plan).value(), env.body().size());
  counts_.values.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
}

void Peer::HandleResultPlan(Plan plan, size_t wire_bytes) {
  if (!client_.Awaits(plan.query_id())) return;
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
  client_.OnResult(std::move(plan), wire_bytes);
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

// The forwarding budget a registration starts with (§3.3), and the most
// a received one may claim.
constexpr int kRegisterTtl = 2;

struct RegisterDoc {
  std::string server;
  std::string name;
  int ttl = 0;
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
  if (!mqp::ParseInteger(attrs.Get("ttl", "0"), &doc.ttl)) {
    return r.Error("register ttl must be an int");
  }
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
  doc.ttl = kRegisterTtl;
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
    wire::Send(sim_, id_, *pid, {wire::kRegisterKind, "", 0, payload});
  }
}

void Peer::HandleRegister(const wire::Envelope& env) {
  ++counts_.values.registrations_received;
  if (!options_.roles.index && !options_.roles.meta_index) return;
  auto parsed = ParseRegisterBody(env.body());
  if (!parsed.ok()) {
    counts_.Count(&PeerCounters::decode_rejects);
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
  // meta-indexes learn about coverage (§3.3), bounded by a TTL that a
  // sender cannot raise past kRegisterTtl (two servers bootstrapped to
  // each other would otherwise bounce it back and forth ttl times). Only
  // index-level entries travel: the meta level tracks servers, not
  // collections or named resources (§3.2).
  if (stored && options_.roles.authoritative && reg.ttl > 0) {
    RegisterDoc fwd = std::move(reg);
    fwd.ttl = std::min(fwd.ttl, kRegisterTtl) - 1;
    std::erase_if(fwd.entries,
                  [](const RegisterEntry& e) { return e.level != "index"; });
    fwd.named.clear();
    if (!fwd.entries.empty()) {
      const net::Payload payload = net::MakePayload(EncodeRegisterBody(fwd));
      for (const auto& b : bootstraps_) {
        auto pid = sim_->Lookup(b);
        if (pid.ok() && *pid != id_) {
          wire::Send(sim_, id_, *pid, {wire::kRegisterKind, "", 0, payload});
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
             {wire::kCategoryQueryKind, req, 0,
              net::MakePayload(std::move(body))});
}

void Peer::HandleCategoryQuery(const wire::Envelope& env, net::PeerId from) {
  if (!options_.roles.category || hierarchies_ == nullptr) return;
  xml::AttrList q;
  if (!wire::DecodeAttrBody(env.body(), &q).ok()) {
    counts_.Count(&PeerCounters::decode_rejects);
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
             {wire::kCategoryReplyKind, env.query_id, 0,
              net::MakePayload(std::move(reply))});
}

// --- fetch service (pull; used by baselines & index pull) --------------------------

void Peer::HandleFetch(const wire::Envelope& env, net::PeerId from) {
  const EngineTally tally(&counts_);
  xml::AttrList attrs;
  if (!wire::DecodeAttrBody(env.body(), &attrs).ok()) {
    counts_.Count(&PeerCounters::decode_rejects);
    return;
  }
  auto items = store_.Fetch(address(), attrs.Get("xpath"));
  SendItemReply(sim_, id_, from, env, items.ok() ? &*items : nullptr);
}

// --- subquery service (coordinator-style distributed QP, baseline C2) ------------

void Peer::HandleSubquery(const wire::Envelope& env, net::PeerId from) {
  const EngineTally tally(&counts_);
  // Subquery evaluation honors the requesting query's remaining deadline
  // (DESIGN.md §11); an exhausted budget yields the empty reply below,
  // which the coordinator's deadline/retry machinery already handles.
  const engine::ScopedEvalBudget budget(admission_.LimitsFor(env.deadline));
  // The body is the sub-plan's <mqp> document itself (the coordinator
  // stopped wrapping it; correlation rides in the envelope header).
  auto plan = DecodePlan(env.payload);
  if (!plan.ok()) {
    counts_.Count(&PeerCounters::reply_decode_failures);
  } else if (plan->root() != nullptr) {
    // A bound-stamped root marks a bounded top-k request: the reply then
    // ships only the eligible score-ordered slice.
    auto items = engine::Evaluate(*plan->root(), &store_);
    if (items.ok()) {
      SendItemReply(sim_, id_, from, env, &*items, plan->root().get());
      return;
    }
  }
  // A malformed plan or a failed evaluation gets the empty reply.
  SendItemReply(sim_, id_, from, env, nullptr);
}

// --- overload protection (DESIGN.md §11) -------------------------------------------

void Peer::HandleMqp(const wire::Envelope& env) {
  // hop_dom_nodes_built spans the entire hop — decode through forward —
  // so a pure routing hop can be asserted to build zero xml::Nodes.
  const uint64_t nodes_before = xml::DomNodesBuilt();
  auto parsed = DecodePlan(env.payload);
  if (!parsed.ok()) {  // malformed plans are dropped
    counts_.Count(&PeerCounters::decode_rejects);
    return;
  }
  ++counts_.values.plans_received;
  Plan plan = std::move(parsed).value();
  switch (admission_.Admit(plan, env.deadline, env.attempt)) {
    case Admission::Verdict::kReap:
      break;
    case Admission::Verdict::kServe:
      ProcessPlan(std::move(plan), env.hops, env.deadline, env.attempt);
      break;
    case Admission::Verdict::kShed:
      // Returned, not dropped: the partial goes back to its target now.
      // The marker is recorded even when provenance is otherwise ablated:
      // it is the wire signal the client's failover keys on (quarantine
      // the hot server, rebind elsewhere), not an audit note.
      AddProvenance(&plan, ProvenanceAction::kShed, "overload");
      DeliverToTarget(std::move(plan), env.deadline, env.attempt);
      break;
    case Admission::Verdict::kQueue:
      sim_->ScheduleFor(
          id_, admission_.serve_at(),
          [this, p = std::move(plan), hops = env.hops,
           deadline = env.deadline, attempt = env.attempt]() mutable {
            // Cancelled while queued: reap instead of serving.
            if (admission_.Reap(p.query_id())) return;
            const uint64_t nb = xml::DomNodesBuilt();
            ProcessPlan(std::move(p), hops, deadline, attempt);
            counts_.values.hop_dom_nodes_built += xml::DomNodesBuilt() - nb;
          });
      break;
  }
  counts_.values.hop_dom_nodes_built += xml::DomNodesBuilt() - nodes_before;
}

}  // namespace mqp::peer
