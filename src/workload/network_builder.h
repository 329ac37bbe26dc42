// Assembles the standard P2P topologies used by tests, benches and
// examples: a client, an authoritative top-level meta-index server,
// per-state index servers, and garage-sale sellers (paper §3) — plus the
// synthetic super-peer hierarchies the million-peer substrate bench
// sweeps (ROADMAP item 1; the indexing-server-plus-peers shape of the
// cs550 related repo is the 2-level case).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"
#include "peer/peer.h"
#include "sync/gossip.h"
#include "workload/garage_sale.h"

namespace mqp::workload {

/// \brief Knobs for BuildGarageSaleNetwork.
struct GarageSaleNetworkParams {
  size_t num_sellers = 20;
  size_t items_per_seller = 20;
  uint64_t seed = 42;
  peer::PeerOptions client_template;  ///< options copied into the client
};

/// \brief The assembled network. Peers are owned here; the simulator is
/// not.
struct GarageSaleNetwork {
  std::vector<std::unique_ptr<peer::Peer>> owned;

  peer::Peer* client = nullptr;
  peer::Peer* top_meta = nullptr;            ///< authoritative for [*, *]
  std::vector<peer::Peer*> index_servers;    ///< one per state, [state, *]
  std::vector<peer::Peer*> sellers;

  GarageSaleGenerator generator{0};
  std::vector<Seller> seller_specs;
  algebra::ItemSet all_items;  ///< ground truth for recall measurement

  /// The index server covering `seller_cell`'s state, or top_meta.
  peer::Peer* IndexFor(const ns::InterestCell& seller_cell) const;
};

/// \brief Builds and *joins* the network: after this returns the simulator
/// has drained all registration traffic.
GarageSaleNetwork BuildGarageSaleNetwork(net::Transport* sim,
                                         const GarageSaleNetworkParams& p);

/// \brief Convenience: an interest-area query plan,
/// select(predicate)(urn:InterestArea:<area>) under a display. Pass a null
/// predicate to fetch everything in the area. The display target is
/// overwritten by Peer::SubmitQuery.
algebra::Plan MakeAreaQueryPlan(const ns::InterestArea& area,
                                algebra::ExprPtr predicate = nullptr);

/// \brief Convenience: a top-k interest-area query,
/// topn(k, order_field)(select(predicate)(urn:InterestArea:<area>)) under
/// a display — the shape the distributed top-k rewrite (DESIGN.md §10)
/// turns into bounded, score-ordered remote fetches. Pass a null
/// predicate to rank everything in the area.
algebra::Plan MakeTopKQueryPlan(const ns::InterestArea& area,
                                std::string order_field, bool ascending,
                                uint64_t k,
                                algebra::ExprPtr predicate = nullptr);

// --- super-peer / hierarchical topologies (million-peer substrate) ------------

/// \brief Knobs for BuildSuperPeerNetwork. The synthetic namespace is
/// 2-dimensional: dim 0 is region/city ("r<i>/c<j>" under super-peer i),
/// dim 1 is a flat category vocabulary ("g<k>"). Total population is
/// num_super_peers * leaves_per_super + num_super_peers + 2 (root and
/// client).
struct SuperPeerNetworkParams {
  size_t num_super_peers = 8;    ///< N: regions, one super-peer each
  size_t leaves_per_super = 64;  ///< M: base servers fronted per super
  size_t cities_per_super = 16;  ///< dim-0 fan-out inside each region
  size_t categories = 8;         ///< dim-1 vocabulary size
  size_t items_per_leaf = 2;
  uint64_t seed = 42;
  /// Catalog placement: when true the catalog tier (root + super-peers)
  /// gossips versioned state among itself — leaves only ever register
  /// upward, so sync load scales with N, not N*M.
  bool sync_catalog_tier = false;
  sync::SyncOptions sync;  ///< template for the catalog tier (seed varied)
  peer::PeerOptions client_template;
};

/// \brief The assembled hierarchy. Peers are owned here; the simulator
/// is not.
struct SuperPeerNetwork {
  std::vector<std::unique_ptr<peer::Peer>> owned;

  peer::Peer* client = nullptr;
  peer::Peer* root = nullptr;            ///< authoritative for [*, *]
  std::vector<peer::Peer*> super_peers;  ///< super i: [r<i>, *], index role
  std::vector<peer::Peer*> leaves;       ///< base servers, M per super
};

/// The region area (r<i>, *) a super-peer is authoritative for.
ns::InterestArea SuperPeerRegion(size_t super);

/// A city-level query area (r<i>.c<j>, *) inside super i's region —
/// resolves root → super i → the leaves publishing in that city.
ns::InterestArea SuperPeerCity(size_t super, size_t city);

/// \brief Builds and joins the hierarchy: super-peers register with the
/// root first, then all leaves register with their super-peer (one
/// drain — at 1M leaves this is itself a scheduler stress), then the
/// catalog tier's gossip is enabled when configured. After this returns
/// the simulator has drained all registration traffic.
SuperPeerNetwork BuildSuperPeerNetwork(net::Transport* sim,
                                       const SuperPeerNetworkParams& p);

}  // namespace mqp::workload
