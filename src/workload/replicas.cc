#include "workload/replicas.h"

#include <memory>
#include <optional>

#include "net/simulator.h"
#include "workload/network_builder.h"

namespace mqp::workload {

ReplicaQuery RunReplicaQuery(bool with_statements, size_t replicas) {
  net::Simulator sim;
  const std::vector<std::string> fields = {"location", "category"};
  peer::PeerOptions idx_opts;
  idx_opts.name = "index";
  idx_opts.roles.index = true;
  idx_opts.roles.authoritative = true;
  idx_opts.interest = *ns::InterestArea::Parse("(USA.OR,*)");
  idx_opts.dimension_fields = fields;
  peer::Peer index(&sim, idx_opts);
  index.catalog().set_use_statements(with_statements);

  // The original holder S, then the exact copies R0..Rk-1.
  Seller spec;
  spec.name = "S";
  spec.cell = ns::MakeCell({"USA/OR/Portland", "Music/CDs"});
  const ns::InterestArea area(spec.cell);
  const algebra::ItemSet items =
      GarageSaleGenerator(300 + replicas).MakeItems(spec, kReplicaItems);
  std::vector<std::unique_ptr<peer::Peer>> holders;
  for (size_t i = 0; i <= replicas; ++i) {
    peer::PeerOptions o;
    o.name = i == 0 ? "S" : "R" + std::to_string(i - 1);
    o.roles.base = true;
    o.dimension_fields = fields;
    holders.push_back(std::make_unique<peer::Peer>(&sim, o));
    peer::Peer* p = holders.back().get();
    p->PublishCollection("c", area, items);
    p->AddBootstrap(index.address());
    if (i == 0) continue;
    // Example 1's statement: identical holdings for the area.
    auto st = catalog::IntensionalStatement::Parse(
        "base[(USA.OR.Portland,Music.CDs)]@" + p->address() +
        " = base[(USA.OR.Portland,Music.CDs)]@" + holders[0]->address());
    if (st.ok()) p->AddOwnStatement(*st);
  }
  for (auto& h : holders) h->JoinNetwork();
  sim.Run();

  peer::PeerOptions copts;
  copts.name = "client";
  copts.dimension_fields = fields;
  peer::Peer client(&sim, copts);
  client.AddBootstrap(index.address());
  sim.stats().Clear();
  std::optional<peer::QueryOutcome> outcome;
  client.SubmitQuery(MakeAreaQueryPlan(area),
                     [&](const peer::QueryOutcome& o) { outcome = o; });
  sim.Run();
  ReplicaQuery q;
  q.bytes = sim.stats().bytes;
  if (!outcome) return q;
  q.ok = true;
  q.results = outcome->items.size();
  q.latency = outcome->completed_at - outcome->submitted_at;
  for (const auto& h : holders) {
    if (outcome->provenance.Visited(h->address())) ++q.base_visits;
  }
  return q;
}

std::vector<std::string> ReplicaStatementsShape(const ReplicaQuery& with,
                                                const ReplicaQuery& without,
                                                size_t replicas) {
  if (!with.ok || !without.ok) return {"a query did not return"};
  std::vector<std::string> failed;
  auto expect = [&](const char* side, const ReplicaQuery& q, size_t visits) {
    if (q.base_visits == visits && q.results == kReplicaItems * visits) {
      return;
    }
    failed.push_back(std::string(side) + " statements " +
                     std::to_string(q.base_visits) + " base visit(s) and " +
                     std::to_string(q.results) + " results, want " +
                     std::to_string(visits) + " and " +
                     std::to_string(kReplicaItems * visits));
  };
  expect("with", with, 1);
  expect("without", without, replicas + 1);
  if (with.bytes >= without.bytes || with.latency >= without.latency) {
    failed.push_back("with statements " + std::to_string(with.bytes) +
                     " B in " + std::to_string(with.latency) +
                     " s, without " + std::to_string(without.bytes) +
                     " B in " + std::to_string(without.latency) + " s");
  }
  return failed;
}

}  // namespace mqp::workload
