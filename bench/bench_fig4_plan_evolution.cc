// F4 — Figure 4: two steps in the evaluation of a mutant query —
// (a) resolution and rewriting, (b) reduction.
//
// We trace the actual wire size of the MQP after every hop of the Figure-3
// query: the URN resolution step grows the plan slightly (URLs + pushed
// selects), each reduction substitutes data for sub-plans (growing the
// plan with partial results), and the final reduction collapses it to the
// result. The per-hop series is the quantity MQP optimization reasons
// about ("their size matters", §2).
#include "net/simulator.h"
#include "bench_util.h"

using namespace mqp;

int main() {
  bench::Header("F4", "Figure 4 plan evolution: wire size after each hop");

  net::Simulator sim;
  workload::CdMarketGenerator gen(2026);
  auto titles = gen.MakeTitles(40);

  peer::PeerOptions idx_opts;
  idx_opts.name = "resolver";
  idx_opts.roles.index = true;
  peer::Peer resolver(&sim, idx_opts);

  peer::PeerOptions s1_opts;
  s1_opts.name = "seller1";
  s1_opts.roles.base = true;
  peer::Peer seller1(&sim, s1_opts);
  seller1.PublishNamed("urn:ForSale:Portland-CDs", "cds",
                       gen.MakeSellerCds(titles, "seller1", 30));
  peer::PeerOptions s2_opts;
  s2_opts.name = "seller2";
  s2_opts.roles.base = true;
  peer::Peer seller2(&sim, s2_opts);
  seller2.PublishNamed("urn:ForSale:Portland-CDs", "cds",
                       gen.MakeSellerCds(titles, "seller2", 30));
  peer::PeerOptions tl_opts;
  tl_opts.name = "cddb";
  tl_opts.roles.base = true;
  peer::Peer tracklist(&sim, tl_opts);
  auto listings = gen.MakeTrackListings(titles, 4);
  tracklist.PublishNamed("urn:CD:TrackListings", "listings", listings);
  for (peer::Peer* p : {&seller1, &seller2, &tracklist}) {
    p->AddBootstrap(resolver.address());
    p->JoinNetwork();
  }
  sim.Run();

  peer::PeerOptions copts;
  copts.name = "client";
  peer::Peer client(&sim, copts);
  client.AddBootstrap(resolver.address());

  // Trace every mqp/result transfer.
  struct HopRecord {
    std::string kind;
    net::PeerId from, to;
    size_t bytes;
  };
  std::vector<HopRecord> hops;
  sim.set_on_send([&](const net::Message& m) {
    if (m.kind == wire::kMqpKind || m.kind == wire::kResultKind) {
      hops.push_back({m.kind, m.from, m.to, m.size_bytes});
    }
  });

  auto favorites = gen.MakeFavoriteSongs(listings, 12);
  auto plan = workload::MakeFigure3Plan(favorites, "urn:ForSale:Portland-CDs",
                                        "urn:CD:TrackListings", "", "10");
  const size_t initial = algebra::PlanWireSize(plan);

  bool done = false;
  size_t results = 0;
  client.SubmitQuery(std::move(plan), [&](const peer::QueryOutcome& o) {
    results = o.items.size();
    done = true;
  });
  sim.Run();

  auto name_of = [&](net::PeerId id) -> std::string {
    for (peer::Peer* p :
         {&resolver, &seller1, &seller2, &tracklist, &client}) {
      if (p->id() == id) return p->options().name;
    }
    return "?";
  };

  bench::Row("%5s %-10s %-10s %-8s %10s %9s", "hop", "from", "to", "kind",
             "bytes", "delta");
  bench::Row("%5s %-10s %-10s %-8s %10zu %9s", "0", "client", "client",
             "submit", initial, "-");
  size_t prev = initial;
  for (size_t i = 0; i < hops.size(); ++i) {
    bench::Row("%5zu %-10s %-10s %-8s %10zu %+9lld", i + 1,
               name_of(hops[i].from).c_str(), name_of(hops[i].to).c_str(),
               hops[i].kind.c_str(), hops[i].bytes,
               static_cast<long long>(hops[i].bytes) -
                   static_cast<long long>(prev));
    prev = hops[i].bytes;
  }
  bench::Row("\nquery %s, %zu results", done ? "completed" : "DID NOT RETURN",
             results);
  bench::Row("\nShape check (paper Figure 4): the resolution hop swaps the "
             "URN for seller URLs\nwith the select pushed through the union "
             "(a); each seller/service visit reduces\nits sub-plan to "
             "verbatim data, so the plan carries partial results until the\n"
             "final reduction collapses it (b).");
  return 0;
}
