// Peer: one participant in the P2P network, composing the roles of §3.2
// (base / index / meta-index / category server, optionally authoritative)
// with the mutant-query processing loop of Figure 2:
//
//   parse → resolve URNs via catalog → rewrite/optimize → policy-select
//   evaluable sub-plans → evaluate & reduce → route or deliver.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "algebra/plan_xml.h"
#include "catalog/catalog.h"
#include "common/counters.h"
#include "common/rng.h"
#include "engine/local_store.h"
#include "engine/operator.h"
#include "engine/topk_heap.h"
#include "net/transport.h"
#include "ns/hierarchy.h"
#include "ns/interest.h"
#include "optimizer/cost.h"
#include "optimizer/policy.h"
#include "optimizer/rewrites.h"
#include "sync/gossip.h"
#include "wire/envelope.h"

namespace mqp::peer {

// Message kinds (owned by the wire layer; re-exported for existing users).
inline constexpr auto kMqpKind = wire::kMqpKind;
inline constexpr auto kResultKind = wire::kResultKind;
inline constexpr auto kRegisterKind = wire::kRegisterKind;
inline constexpr auto kCategoryQueryKind = wire::kCategoryQueryKind;
inline constexpr auto kCategoryReplyKind = wire::kCategoryReplyKind;
inline constexpr auto kFetchKind = wire::kFetchKind;
inline constexpr auto kFetchReplyKind = wire::kFetchReplyKind;
inline constexpr auto kSubqueryKind = wire::kSubqueryKind;
inline constexpr auto kSubqueryReplyKind = wire::kSubqueryReplyKind;
inline constexpr auto kSyncDigestKind = wire::kSyncDigestKind;
inline constexpr auto kSyncDeltaKind = wire::kSyncDeltaKind;
inline constexpr auto kCancelKind = wire::kCancelKind;

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
/// peer-reported members are inherited; Peer::Count records them here and
/// in the transport's NetStats at once.
struct PeerCounters : PeerReportedCounters {
  MQP_PEER_ONLY_COUNTERS(MQP_COUNTER_FIELD)
};

/// \brief A network participant. Attach to any net::Transport (the
/// deterministic simulator, the threaded runtime, or the TCP
/// transport — DESIGN.md §8), publish data or indexes, join, and
/// submit queries. All mutable peer state is peer-confined: the
/// transport serializes handler invocations per peer.
class Peer : public net::PeerNode {
 public:
  /// Registers with `net` (which must outlive the peer).
  Peer(net::Transport* net, PeerOptions options);

  net::PeerId id() const { return id_; }
  /// This peer's cached network address (no allocation per call).
  const std::string& address() const { return sim_->Address(id_); }
  const PeerOptions& options() const { return options_; }
  PeerOptions& mutable_options() { return options_; }

  catalog::Catalog& catalog() { return catalog_; }
  const catalog::Catalog& catalog() const { return catalog_; }
  engine::LocalStore& store() { return store_; }
  const PeerCounters& counters() const { return counters_; }

  // --- base-server API --------------------------------------------------------

  /// Publishes a collection of items under `area`. The collection becomes
  /// locally resolvable immediately and is announced on JoinNetwork().
  void PublishCollection(const std::string& collection_id,
                         const ns::InterestArea& area,
                         const algebra::ItemSet& items);

  /// Publishes a *named* resource (e.g. "urn:CD:TrackListings" → a local
  /// collection).
  void PublishNamed(const std::string& urn, const std::string& collection_id,
                    const algebra::ItemSet& items);

  /// Adds an intensional statement this peer asserts about itself; it is
  /// propagated to index servers on JoinNetwork() (§4.2: "whenever a
  /// server registers ... it can also provide intensional statements").
  void AddOwnStatement(catalog::IntensionalStatement st);

  // --- membership -------------------------------------------------------------

  /// Out-of-band bootstrap (§3.2: peers discover top-level meta-index
  /// servers outside the P2P network).
  void AddBootstrap(const std::string& address);
  const std::vector<std::string>& bootstraps() const { return bootstraps_; }

  /// Registers this peer's holdings/interest with bootstrap servers and
  /// any index servers already known to the local catalog.
  void JoinNetwork();

  // --- dynamic catalog maintenance (src/sync/) --------------------------------

  /// Enables the gossip/anti-entropy layer: seeds a versioned catalog
  /// with this peer's own holdings (see OwnSyncEntries), adds bootstraps
  /// as gossip partners, and starts the Schedule-driven gossip loop.
  /// Publications after this call are upserted into the sync layer too.
  void EnableSync(const sync::SyncOptions& options);

  /// The sync agent, or null when EnableSync was never called.
  sync::SyncAgent* sync() { return sync_.get(); }
  const sync::SyncAgent* sync() const { return sync_.get(); }

  /// Graceful departure: tombstones this peer's catalog facts and pushes
  /// them to the gossip partners. The caller then fails the peer.
  void LeaveNetwork();

  /// For a peer that left for good (the caller failed it and never
  /// recovers it): frees its catalog and gossip state, which nothing reads
  /// again. Without this a long churn run keeps every departed peer's
  /// full catalog.
  void Retire();

  /// Recovery hook for churn drivers: re-stamps all own records so other
  /// catalogs (whose vectors dominate the pre-failure stamps) re-learn
  /// them, and resumes gossip.
  void RejoinNetwork();

  /// This peer's own catalog facts in syncable form: one area entry per
  /// published collection, an index-level entry when the peer serves an
  /// index/meta role, and one named entry per published named URN.
  std::vector<catalog::SyncEntry> OwnSyncEntries() const;

  /// §3.3's complementary *pull* process: an index server fetches the data
  /// of every base server in its catalog, stores local replicas, and
  /// asserts the corresponding §4.3 containment statements
  /// (base[area]@self ⊇ base[area]@source{delay}). Future bindings can
  /// then answer from the replica alone — the §4.3 currency/latency trade.
  /// `delay_minutes` is the declared refresh period.
  void PullIndexedData(int delay_minutes);

  /// Number of replica collections created by PullIndexedData.
  size_t replica_count() const { return replicas_.size(); }

  /// Drops a replica created by PullIndexedData (e.g. when its source
  /// leaves the network). Replica ids are minted from a monotonic
  /// counter, so a dropped id is never reused by a later pull.
  void DropReplica(const std::string& collection_id);

  /// Distributed top-k merge sessions currently coordinated here.
  size_t topk_sessions() const { return topk_sessions_.size(); }

  // --- category-server API ------------------------------------------------------

  /// Serves `ns` (not owned) when the category role is set; also enables
  /// §3.5 approximation of unknown categories during resolution.
  void ServeHierarchies(const ns::MultiHierarchy* ns) {
    // Warm the lazy interval/string caches now, while still on the setup
    // thread: the namespace may be shared read-only by several peers, and
    // warmed const probes are pure reads (DESIGN.md §8).
    ns->Warm();
    hierarchies_ = ns;
    catalog_.set_hierarchies(ns);
  }

  using CategoryCallback = std::function<void(const std::vector<std::string>&)>;

  /// Asks the category server at `server` for the immediate subcategories
  /// of `path` in `dimension` (§3.5). The reply arrives via `cb`.
  void RequestCategories(const std::string& server,
                         const std::string& dimension,
                         const std::string& path, CategoryCallback cb);

  // --- client API --------------------------------------------------------------

  using Callback = std::function<void(const QueryOutcome&)>;

  /// Submits a query. The plan's display target is overwritten to this
  /// peer; processing starts locally and the result arrives via `cb` once
  /// the MQP returns — or, with reliability enabled, once the deadline or
  /// retry budget runs out (then with whatever partial result the best
  /// attempt produced). Returns the assigned query id.
  std::string SubmitQuery(algebra::Plan plan, Callback cb);

  /// Queries submitted here still awaiting an outcome. With a deadline
  /// configured this returns to zero once every query resolves or is
  /// reaped — the pending map must not grow across a churn loop.
  size_t pending_queries() const { return pending_.size(); }

  /// True while `server` sits on the suspicion list (failed interaction
  /// within the TTL). Suspect servers are routed around when any
  /// alternative exists.
  bool IsSuspect(const std::string& server);

  // --- net::PeerNode -------------------------------------------------------------

  void HandleMessage(const net::Message& msg) override;

 private:
  struct Pending;  // defined below (client reliability state)

  // The Figure-2 processing loop. `hops` is the wire-layer hop count the
  // plan arrived with (0 for locally submitted queries); `deadline` and
  // `attempt` are the envelope's reliability fields (0 on fault-free
  // legacy traffic) and travel with the plan to the next hop.
  void ProcessPlan(algebra::Plan plan, uint32_t hops = 0, double deadline = 0,
                   uint32_t attempt = 0);

  // --- overload protection (DESIGN.md §11) -------------------------------------

  /// True when this peer's options enable the protection layer.
  bool OverloadActive() const { return options_.overload.enabled; }
  /// Decode + admission control + service-time deferral for an arriving
  /// remote plan; admitted plans reach ProcessPlan when the modeled
  /// queue drains to them.
  void HandleMqp(const wire::Envelope& env);
  /// Deterministic admission decision for an arriving plan, given the
  /// projected queueing delay (pure in (seed, query id, attempt)).
  bool ShouldShed(double projected_delay, uint32_t priority,
                  const std::string& query_id, uint32_t attempt);
  /// Returns the plan unevaluated with a `shed` provenance marker so the
  /// PR 8 client retries elsewhere or degrades.
  void ShedPlan(algebra::Plan plan, double deadline, uint32_t attempt);
  /// The engine budget for one evaluation under `deadline` (unlimited
  /// when budgets are off or no deadline applies).
  engine::EvalLimits EvalLimitsFor(double deadline) const;
  /// Cancel fan-out to every server this query touched; idempotent on
  /// the receiver.
  void SendCancels(const std::string& query_id, const Pending& p);
  void HandleCancel(const wire::Envelope& env);

  /// Resolution stage; returns how many URNs were bound.
  int ResolveUrns(algebra::Plan* plan);

  /// Attaches true cardinality/byte annotations to local URL leaves.
  void AnnotateLocalUrls(algebra::Plan* plan);

  /// Rewrite/optimize stage (select pushdown, or-elimination,
  /// consolidation, absorption).
  void ApplyRewrites(algebra::Plan* plan);

  /// Policy + evaluation stage; returns how many sub-plans were reduced.
  int EvaluateSubplans(algebra::Plan* plan);

  /// Final-resort evaluation ignoring deferment (dead-ended plans).
  int ForceEvaluate(algebra::Plan* plan);

  /// Evaluates one sub-plan and morphs it into its result; false leaves
  /// it unreduced (an evaluation error or an exhausted budget). A bag
  /// union over carried data folds as bytes (PlanNode::FoldUnion).
  bool ReduceSubplan(algebra::PlanNode* node);

  /// Routes an unfinished plan onward, or delivers it if done/stuck.
  void RouteOrDeliver(algebra::Plan plan, uint32_t hops, double deadline = 0,
                      uint32_t attempt = 0);

  /// Records a peer-reported counter once: in counters_ and in the
  /// calling thread's sim_->stats() shard. Pass `&PeerCounters::name`;
  /// a substrate or peer-only counter does not compile.
  void Count(uint64_t PeerReportedCounters::*counter, uint64_t n = 1);
  /// The same for a batch of deltas (engine, resolve and codec tallies).
  void Count(const PeerReportedCounters& deltas);
  /// Reports engine::Stats() deltas through Count on scope exit.
  class EngineTally;

  /// Serializes via the wire-layer cache, counting the work.
  net::Payload PlanBody(const algebra::Plan& plan);
  /// Decodes a plan body via the wire codec, counting the work.
  Result<algebra::Plan> DecodePlan(const net::Payload& body);

  void DeliverToTarget(algebra::Plan plan, double deadline = 0,
                       uint32_t attempt = 0);
  void HandleResult(const wire::Envelope& env);
  void HandleResultPlan(algebra::Plan plan, size_t wire_bytes);
  void HandleRegister(const wire::Envelope& env);
  void HandleCategoryQuery(const wire::Envelope& env, net::PeerId from);
  void HandleCategoryReply(const wire::Envelope& env);
  void HandleFetch(const wire::Envelope& env, net::PeerId from);
  void HandleFetchReply(const wire::Envelope& env);
  void HandleSubquery(const wire::Envelope& env, net::PeerId from);

  // --- distributed top-k coordinator (DESIGN.md §10) ---------------------------

  /// One remote contributor to a top-k merge: an annotated sub-plan the
  /// coordinator streams score-ordered batches from.
  struct TopKSource {
    algebra::PlanNodePtr node;  ///< the annotated sub-plan (in the plan DAG)
    std::string server;         ///< the peer answering for this sub-plan
    bool is_fetch = false;      ///< bare URL leaf → bounded fetch
    std::string xpath;          ///< fetch-path collection selector
    uint32_t leaf = 0;          ///< tie-break position under the TopN
    uint64_t cont = 0;          ///< continuation: rows received so far
    uint64_t batch = 0;         ///< next request's window size
    uint64_t total = 0;         ///< server-reported collection size
    uint64_t received_rows = 0;
    uint64_t received_bytes = 0;
    bool done = false;
    bool terminated_early = false;
  };

  /// An in-flight top-k merge: the parked plan, its consumer TopN, the
  /// shared-order heap, and one TopKSource per remote sub-plan.
  struct TopKSession {
    algebra::Plan plan;
    algebra::PlanNode* topn = nullptr;  ///< stable across Plan moves
    engine::TopKSpec spec;
    std::unique_ptr<engine::TopKHeap> heap;
    std::vector<TopKSource> sources;
    uint32_t hops = 0;
    double deadline = 0;   ///< absolute; 0 = none
    uint32_t attempt = 0;  ///< reliability attempt the session serves
    uint64_t generation = 0;  ///< guards the deadline cleanup timer
  };

  /// Parks the plan in a merge session when its consumer TopN sits over
  /// annotated remote sub-plans (plus constants); sends the first round
  /// of bounded requests. False = not a top-k shape, route normally.
  bool MaybeStartTopKSession(algebra::Plan* plan, uint32_t hops,
                             double deadline, uint32_t attempt);
  /// Sends the next bounded request for `sources[idx]`, carrying the
  /// heap's current k-th bound and the adapted batch size.
  void SendTopKRequest(const std::string& query_id, size_t idx);
  /// Demux for bounded fetch/subquery replies ("qid#tk<leaf>.<cont>"
  /// correlation ids); counts decode failures and unmatched replies.
  void HandleBoundedReply(const wire::Envelope& env);
  /// Merges one decoded batch into the session's heap; tightens the
  /// bound, terminates or re-requests the source, finishes the session
  /// when every source is done.
  void MergeTopKBatch(const std::string& query_id, size_t idx,
                      const wire::Envelope& env);
  /// Morphs the TopN to the heap's result and resumes the Figure-2 loop.
  void FinishTopKSession(const std::string& query_id);
  /// Deadline cleanup: delivers the plan as a partial (TopN unmorphed).
  void OnTopKDeadline(const std::string& query_id, uint64_t generation);
  /// Drops rows a bound-stamped sub-plan can never contribute before the
  /// result is folded into the plan (the local-evaluation analog of the
  /// server-side bounded prefix).
  void TruncateForTopK(const algebra::PlanNode& node, algebra::ItemSet* items);

  /// The single construction points for this peer's syncable facts —
  /// record identity is the exact field tuple, so Publish* and
  /// OwnSyncEntries must build byte-identical entries.
  catalog::SyncEntry AreaSyncEntry(const ns::InterestArea& area,
                                   const std::string& xpath,
                                   catalog::HoldingLevel level) const;
  catalog::SyncEntry NamedSyncEntry(const std::string& urn,
                                    const std::string& xpath) const;

  optimizer::Locality LocalLocality() const;
  optimizer::OrPreference CurrentOrPreference(const algebra::Plan& plan) const;
  void AddProvenance(algebra::Plan* plan, algebra::ProvenanceAction action,
                     std::string detail, int staleness = 0);

  net::Transport* sim_;  // the substrate (simulator or runtime backend)
  net::PeerId id_;
  PeerOptions options_;
  engine::LocalStore store_;
  catalog::Catalog catalog_;
  std::unique_ptr<sync::SyncAgent> sync_;
  const ns::MultiHierarchy* hierarchies_ = nullptr;
  std::vector<std::string> bootstraps_;
  std::map<std::string, ns::InterestArea> collections_;  // id → area
  std::map<std::string, std::string> named_published_;   // urn → xpath
  std::vector<catalog::IntensionalStatement> own_statements_;
  std::map<std::string, CategoryCallback> category_waiters_;

  struct PendingPull {
    std::string source_server;
    ns::InterestArea area;
    int delay_minutes = 0;
  };
  std::map<std::string, PendingPull> pending_pulls_;  // req → pull
  std::vector<std::string> replicas_;                 // collection ids
  uint64_t next_pull_ = 0;
  /// Monotonic replica-id mint: survives DropReplica, so ids never reuse.
  uint64_t next_replica_ = 0;

  std::map<std::string, TopKSession> topk_sessions_;  // query id → session
  /// Recently finished session ids: late in-flight replies for them are
  /// dropped silently instead of counting as unmatched.
  RecentIds topk_done_{128};
  uint64_t next_topk_generation_ = 0;

  // --- client reliability (DESIGN.md §9) ---------------------------------------

  /// Backoff before retry `attempt` (0-based), jittered and capped.
  double Backoff(uint32_t attempt);
  /// Quarantines `server` on the suspicion list for the configured TTL.
  void Suspect(const std::string& server);
  /// Launches retry attempt `attempt` of `p`'s query from its retained
  /// original, routing around current suspects.
  void StartAttempt(const std::string& query_id, uint32_t attempt);
  /// Arms the pending query's single retry/deadline timer; `generation`
  /// guards against stale firings (each result/retry bumps it).
  void ArmQueryTimer(const std::string& query_id, double when);
  void OnQueryTimer(const std::string& query_id, uint64_t generation);
  /// Finishes an exhausted query with its best partial outcome.
  void GiveUp(const std::string& query_id);
  /// Suspects the servers named by still-unresolved leaves of a returned
  /// incomplete plan (the hops that went unanswered).
  void SuspectUnansweredLeaves(const algebra::Plan& plan);

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
  std::map<std::string, Pending> pending_;
  /// Recently finished query ids: late duplicate results for them are
  /// counted, not re-delivered.
  RecentIds completed_{128};
  /// Suspicion list: server address → quarantine expiry time.
  std::map<std::string, double> suspects_;
  mqp::Rng reliability_rng_{1};
  uint64_t next_query_ = 0;
  PeerCounters counters_;
  int engine_tally_depth_ = 0;  // EngineTally re-entrancy guard

  // --- overload protection (DESIGN.md §11) -------------------------------------

  /// Virtual time until which this peer's modeled core is busy; the
  /// service-time model queues admitted plans behind it. Never read when
  /// service_rate_qps is 0.
  double busy_until_ = 0;
  /// Recently cancelled query ids: queued plans and late traffic for
  /// these are dropped instead of serviced.
  RecentIds cancelled_{256};
};

}  // namespace mqp::peer
