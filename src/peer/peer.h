// Peer: one participant in the P2P network, composing the roles of §3.2
// (base / index / meta-index / category server, optionally authoritative)
// with the mutant-query processing loop of Figure 2:
//
//   parse → resolve URNs via catalog → rewrite/optimize → policy-select
//   evaluable sub-plans → evaluate & reduce → route or deliver.
//
// Three extensions are components the peer owns: QueryClient (client
// reliability, DESIGN.md §9), TopKCoordinator (distributed top-k, §10)
// and Admission (overload protection, §11).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan_xml.h"
#include "catalog/catalog.h"
#include "engine/local_store.h"
#include "ns/hierarchy.h"
#include "optimizer/rewrites.h"
#include "peer/admission.h"
#include "peer/common.h"
#include "peer/query_client.h"
#include "peer/topk_coordinator.h"
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

/// \brief A network participant. Attach to any net::Transport (the
/// deterministic simulator, the threaded runtime, or the TCP
/// transport — DESIGN.md §8), publish data or indexes, join, and
/// submit queries. All mutable peer state is peer-confined: the
/// transport serializes handler invocations per peer.
class Peer : public net::PeerNode {
 public:
  /// Registers with `net` (which must outlive the peer). The transport
  /// and the peer's components hold its address, so it never moves.
  Peer(net::Transport* net, PeerOptions options);
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  net::PeerId id() const { return id_; }
  /// This peer's cached network address (no allocation per call).
  const std::string& address() const { return sim_->Address(id_); }
  const PeerOptions& options() const { return options_; }
  PeerOptions& mutable_options() { return options_; }

  catalog::Catalog& catalog() { return catalog_; }
  const catalog::Catalog& catalog() const { return catalog_; }
  engine::LocalStore& store() { return store_; }
  const PeerCounters& counters() const { return counts_.values; }

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
  size_t topk_sessions() const { return topk_.sessions(); }

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

  using Callback = QueryClient::Callback;

  /// Submits a query. The plan's display target is overwritten to this
  /// peer; processing starts locally and the result arrives via `cb` once
  /// the MQP returns — or, with reliability enabled, once the deadline or
  /// retry budget runs out (then with whatever partial result the best
  /// attempt produced). Returns the assigned query id.
  std::string SubmitQuery(algebra::Plan plan, Callback cb);

  /// Queries submitted here still awaiting an outcome. With a deadline
  /// configured this returns to zero once every query resolves or is
  /// reaped — the pending map must not grow across a churn loop.
  size_t pending_queries() const { return client_.pending(); }

  /// True while `server` sits on the suspicion list (failed interaction
  /// within the TTL). Suspect servers are routed around when any
  /// alternative exists.
  bool IsSuspect(const std::string& server) {
    return client_.IsSuspect(server);
  }

  /// What must hold once the transport is idle: every pending query and
  /// every top-k session that carries a timer has ended, because all
  /// timers have fired. Returns one line per violation; empty when sound.
  std::vector<std::string> CheckInvariants() const;

  // --- net::PeerNode -------------------------------------------------------------

  void HandleMessage(const net::Message& msg) override;

 private:
  // The Figure-2 processing loop. `hops` is the wire-layer hop count the
  // plan arrived with (0 for locally submitted queries); `deadline` and
  // `attempt` are the envelope's reliability fields (0 on fault-free
  // legacy traffic) and travel with the plan to the next hop.
  void ProcessPlan(algebra::Plan plan, uint32_t hops = 0, double deadline = 0,
                   uint32_t attempt = 0);
  /// The way back into ProcessPlan that the components are given.
  Resume ResumeLoop();

  /// Decode + admission control + service-time deferral for an arriving
  /// remote plan; admitted plans reach ProcessPlan when the modeled
  /// queue drains to them.
  void HandleMqp(const wire::Envelope& env);

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
  CounterSink counts_;
  QueryClient client_;      // client reliability (DESIGN.md §9)
  TopKCoordinator topk_;    // distributed top-k merges (DESIGN.md §10)
  Admission admission_;     // overload protection (DESIGN.md §11)
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
  /// Mints query ids and category request ids alike.
  uint64_t next_query_ = 0;
};

}  // namespace mqp::peer
