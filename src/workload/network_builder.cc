#include "workload/network_builder.h"

#include "ns/urn.h"

namespace mqp::workload {

using peer::Peer;
using peer::PeerOptions;

peer::Peer* GarageSaleNetwork::IndexFor(
    const ns::InterestCell& seller_cell) const {
  for (Peer* idx : index_servers) {
    if (idx->options().interest.Overlaps(
            ns::InterestArea(seller_cell))) {
      return idx;
    }
  }
  return top_meta;
}

// Item fields carrying the Location and Merchandise coordinates.
static const std::vector<std::string> kGarageSaleFields = {"location",
                                                           "category"};

GarageSaleNetwork BuildGarageSaleNetwork(net::Transport* sim,
                                         const GarageSaleNetworkParams& p) {
  GarageSaleNetwork net;
  net.generator = GarageSaleGenerator(p.seed);

  // Top-level authoritative meta-index server covering everything.
  {
    PeerOptions opts;
    opts.name = "meta-top";
    opts.dimension_fields = kGarageSaleFields;
    opts.interest = ns::InterestArea(ns::InterestCell(
        {ns::CategoryPath(), ns::CategoryPath()}));
    opts.roles.meta_index = true;
    opts.roles.authoritative = true;
    net.owned.push_back(std::make_unique<Peer>(sim, opts));
    net.top_meta = net.owned.back().get();
  }

  // One index server per state-level location, covering [state, *].
  for (const char* state : {"USA/OR", "USA/WA", "USA/CA", "France"}) {
    PeerOptions opts;
    opts.name = std::string("index-") + state;
    opts.dimension_fields = kGarageSaleFields;
    auto path = ns::CategoryPath::Parse(state);
    opts.interest = ns::InterestArea(
        ns::InterestCell({*path, ns::CategoryPath()}));
    opts.roles.index = true;
    opts.roles.authoritative = true;
    net.owned.push_back(std::make_unique<Peer>(sim, opts));
    Peer* idx = net.owned.back().get();
    idx->AddBootstrap(net.top_meta->address());
    net.index_servers.push_back(idx);
  }

  // Sellers: base servers, one collection each, registered with the index
  // server covering their state.
  net.seller_specs = net.generator.MakeSellers(p.num_sellers);
  for (size_t i = 0; i < net.seller_specs.size(); ++i) {
    const Seller& spec = net.seller_specs[i];
    PeerOptions opts;
    opts.name = spec.name;
    opts.dimension_fields = kGarageSaleFields;
    opts.interest = ns::InterestArea(spec.cell);
    opts.roles.base = true;
    net.owned.push_back(std::make_unique<Peer>(sim, opts));
    Peer* seller = net.owned.back().get();
    auto items = net.generator.MakeItems(spec, p.items_per_seller);
    net.all_items.insert(net.all_items.end(), items.begin(), items.end());
    seller->PublishCollection("c" + std::to_string(i),
                              ns::InterestArea(spec.cell), items);
    net.sellers.push_back(seller);
    seller->AddBootstrap(net.IndexFor(spec.cell)->address());
  }

  // Client: knows only the top meta server (out-of-band bootstrap, §3.2).
  {
    PeerOptions opts = p.client_template;
    if (opts.name.empty()) opts.name = "client";
    opts.dimension_fields = kGarageSaleFields;
    net.owned.push_back(std::make_unique<Peer>(sim, opts));
    net.client = net.owned.back().get();
    net.client->AddBootstrap(net.top_meta->address());
  }

  // Join: index servers announce to the meta level first, then sellers
  // register with their index servers.
  for (Peer* idx : net.index_servers) idx->JoinNetwork();
  sim->Run();
  for (Peer* s : net.sellers) s->JoinNetwork();
  sim->Run();
  return net;
}

// --- super-peer hierarchy -----------------------------------------------------

namespace {

// Synthetic 2-dim fields; the coordinates are flat labels so no
// namespace-hierarchy definition is needed (cells compare by path
// prefix, and "r3/c7" is covered by "r3").
const std::vector<std::string> kSuperPeerFields = {"location", "category"};

ns::CategoryPath MustParse(const std::string& text) {
  auto p = ns::CategoryPath::Parse(text);
  return *p;
}

}  // namespace

ns::InterestArea SuperPeerRegion(size_t super) {
  return ns::InterestArea(ns::InterestCell(
      {MustParse("r" + std::to_string(super)), ns::CategoryPath()}));
}

ns::InterestArea SuperPeerCity(size_t super, size_t city) {
  return ns::InterestArea(ns::InterestCell(
      {MustParse("r" + std::to_string(super) + "/c" + std::to_string(city)),
       ns::CategoryPath()}));
}

SuperPeerNetwork BuildSuperPeerNetwork(net::Transport* sim,
                                       const SuperPeerNetworkParams& p) {
  SuperPeerNetwork net;
  const size_t population =
      p.num_super_peers * p.leaves_per_super + p.num_super_peers + 2;
  net.owned.reserve(population);
  net.super_peers.reserve(p.num_super_peers);
  net.leaves.reserve(p.num_super_peers * p.leaves_per_super);

  // Root meta-index, authoritative for everything.
  {
    PeerOptions opts;
    opts.name = "root";
    opts.dimension_fields = kSuperPeerFields;
    opts.interest = ns::InterestArea(
        ns::InterestCell({ns::CategoryPath(), ns::CategoryPath()}));
    opts.roles.meta_index = true;
    opts.roles.authoritative = true;
    net.owned.push_back(std::make_unique<Peer>(sim, opts));
    net.root = net.owned.back().get();
  }

  // Super-peers: each indexes and is authoritative for its region
  // [r<i>, *]; the catalog tier is root + these.
  for (size_t s = 0; s < p.num_super_peers; ++s) {
    PeerOptions opts;
    opts.name = "super-" + std::to_string(s);
    opts.dimension_fields = kSuperPeerFields;
    opts.interest = SuperPeerRegion(s);
    opts.roles.index = true;
    opts.roles.authoritative = true;
    net.owned.push_back(std::make_unique<Peer>(sim, opts));
    Peer* sp = net.owned.back().get();
    sp->AddBootstrap(net.root->address());
    net.super_peers.push_back(sp);
  }

  // Leaves: base servers spread round-robin over each region's cities and
  // the category vocabulary. Everything is deterministic in the indices
  // (the seed only perturbs prices) so ground truth per city cell is
  // computable without materialising item lists.
  Rng rng(p.seed);
  const size_t cities = p.cities_per_super == 0 ? 1 : p.cities_per_super;
  const size_t cats = p.categories == 0 ? 1 : p.categories;
  for (size_t s = 0; s < p.num_super_peers; ++s) {
    for (size_t j = 0; j < p.leaves_per_super; ++j) {
      const size_t city = j % cities;
      const size_t cat = (s + j) % cats;
      const std::string loc =
          "r" + std::to_string(s) + "/c" + std::to_string(city);
      const std::string category = "g" + std::to_string(cat);
      PeerOptions opts;
      opts.name = "leaf-" + std::to_string(s) + "-" + std::to_string(j);
      opts.dimension_fields = kSuperPeerFields;
      ns::InterestCell cell({MustParse(loc), MustParse(category)});
      opts.interest = ns::InterestArea(cell);
      opts.roles.base = true;
      net.owned.push_back(std::make_unique<Peer>(sim, opts));
      Peer* leaf = net.owned.back().get();

      algebra::ItemSet items;
      items.reserve(p.items_per_leaf);
      for (size_t k = 0; k < p.items_per_leaf; ++k) {
        auto item = xml::Node::Element("item");
        item->AddElementWithText("name", opts.name + "-item-" +
                                             std::to_string(k));
        item->AddElementWithText("category", category);
        item->AddElementWithText("location", loc);
        item->AddElementWithText("price",
                                 std::to_string(1 + rng.NextBelow(200)));
        items.push_back(algebra::Item(item.release()));
      }
      leaf->PublishCollection("c0", ns::InterestArea(cell), items);
      leaf->AddBootstrap(net.super_peers[s]->address());
      net.leaves.push_back(leaf);
    }
  }

  // Client, bootstrapped out-of-band to the root only.
  {
    PeerOptions opts = p.client_template;
    if (opts.name.empty()) opts.name = "client";
    opts.dimension_fields = kSuperPeerFields;
    net.owned.push_back(std::make_unique<Peer>(sim, opts));
    net.client = net.owned.back().get();
    net.client->AddBootstrap(net.root->address());
  }

  // Join bottom of the catalog tier first, then all leaves at once — the
  // second drain is the registration burst the substrate bench measures.
  for (Peer* sp : net.super_peers) sp->JoinNetwork();
  sim->Run();
  for (Peer* leaf : net.leaves) leaf->JoinNetwork();
  sim->Run();

  // Catalog placement: gossip runs on the catalog tier only.
  if (p.sync_catalog_tier) {
    sync::SyncOptions o = p.sync;
    o.seed = p.sync.seed;
    net.root->EnableSync(o);
    for (Peer* sp : net.super_peers) {
      o.seed = o.seed * 6364136223846793005ULL + 1442695040888963407ULL;
      sp->EnableSync(o);
    }
  }
  return net;
}

algebra::Plan MakeAreaQueryPlan(const ns::InterestArea& area,
                                algebra::ExprPtr predicate) {
  using algebra::PlanNode;
  algebra::PlanNodePtr body =
      PlanNode::UrnRef(ns::AreaToUrn(area).ToString());
  if (predicate != nullptr) {
    body = PlanNode::Select(std::move(predicate), std::move(body));
  }
  return algebra::Plan(PlanNode::Display("", std::move(body)));
}

algebra::Plan MakeTopKQueryPlan(const ns::InterestArea& area,
                                std::string order_field, bool ascending,
                                uint64_t k, algebra::ExprPtr predicate) {
  using algebra::PlanNode;
  algebra::PlanNodePtr body =
      PlanNode::UrnRef(ns::AreaToUrn(area).ToString());
  if (predicate != nullptr) {
    body = PlanNode::Select(std::move(predicate), std::move(body));
  }
  body = PlanNode::TopN(k, std::move(order_field), ascending,
                        std::move(body));
  return algebra::Plan(PlanNode::Display("", std::move(body)));
}

}  // namespace mqp::workload
