#include "workload/coordinator_race.h"

#include "baseline/coordinator.h"
#include "net/simulator.h"
#include "workload/network_builder.h"

namespace mqp::workload {

namespace {

const ns::InterestArea& RaceArea() {
  static const ns::InterestArea area = *ns::InterestArea::Parse("(USA,*)");
  return area;
}

algebra::ExprPtr RacePredicate() { return algebra::FieldLess("price", "20"); }

RaceRun RunMqp(net::Simulator* sim, GarageSaleNetwork* net, bool fail_one) {
  if (fail_one) sim->Fail(net->sellers[0]->id());
  sim->stats().Clear();
  RaceRun r;
  net->client->SubmitQuery(MakeAreaQueryPlan(RaceArea(), RacePredicate()),
                           [&](const peer::QueryOutcome& o) {
                             r.ok = true;
                             r.complete = o.complete;
                             r.results = o.items.size();
                             r.latency = o.completed_at - o.submitted_at;
                           });
  sim->Run();
  r.messages = sim->stats().messages;
  r.bytes = sim->stats().bytes;
  // An answer that never came back costs the simulated time spent.
  if (!r.ok) r.latency = sim->now();
  if (fail_one) sim->Recover(net->sellers[0]->id());
  return r;
}

RaceRun RunCoordinator(net::Simulator* sim, const GarageSaleNetwork& net,
                       baseline::Coordinator::Mode mode, bool fail_one) {
  baseline::Coordinator coord(sim, mode, kRaceCoordinatorTimeout);
  for (size_t i = 0; i < net.sellers.size(); ++i) {
    coord.AddCatalogEntry(ns::InterestArea(net.seller_specs[i].cell),
                          net.sellers[i]->address(),
                          "/data[id=c" + std::to_string(i) + "]");
  }
  if (fail_one) sim->Fail(net.sellers[0]->id());
  sim->stats().Clear();
  RaceRun r;
  const double start = sim->now();
  coord.Run(MakeAreaQueryPlan(RaceArea(), RacePredicate()),
            [&](const baseline::Coordinator::Outcome& o) {
              r.ok = true;
              r.complete = o.complete;
              r.results = o.items.size();
              r.latency = o.finished_at - start;
            });
  sim->Run();
  r.messages = sim->stats().messages;
  r.bytes = sim->stats().bytes;
  if (fail_one) sim->Recover(net.sellers[0]->id());
  return r;
}

std::string Describe(const char* arch, const RaceRun& r) {
  return std::string(arch) + (r.ok ? "" : " lost") +
         (r.complete ? " complete " : " partial ") +
         std::to_string(r.results) + " results, " + std::to_string(r.bytes) +
         " B in " + std::to_string(r.latency) + " s";
}

}  // namespace

Race RunRace(size_t sellers, bool fail_one) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = sellers;
  params.items_per_seller = 20;
  params.seed = 500 + sellers;
  GarageSaleNetwork net = BuildGarageSaleNetwork(&sim, params);
  Race race;
  race.sellers = sellers;
  const algebra::ExprPtr pred = RacePredicate();
  for (const auto& item : net.all_items) {
    if (GarageSaleGenerator::ItemInArea(*item, RaceArea()) &&
        pred->EvalBool(*item)) {
      ++race.expected;
    }
  }
  race.mqp = RunMqp(&sim, &net, fail_one);
  race.ship = RunCoordinator(&sim, net, baseline::Coordinator::Mode::kShipAll,
                             fail_one);
  race.push = RunCoordinator(
      &sim, net, baseline::Coordinator::Mode::kPushSelections, fail_one);
  return race;
}

std::vector<std::string> HealthyRaceShape(const Race& race) {
  std::vector<std::string> failed;
  for (const auto& [arch, r] : {std::pair{"mqp", &race.mqp},
                                std::pair{"coord-ship", &race.ship},
                                std::pair{"coord-push", &race.push}}) {
    if (!r->ok || !r->complete || r->results != race.expected) {
      failed.push_back(Describe(arch, *r) + ", want complete " +
                       std::to_string(race.expected));
    }
  }
  if (race.ship.latency >= race.mqp.latency ||
      race.push.latency >= race.mqp.latency) {
    failed.push_back("a coordinator is not sooner than the MQP: " +
                     Describe("mqp", race.mqp) + "; " +
                     Describe("coord-ship", race.ship) + "; " +
                     Describe("coord-push", race.push));
  }
  if (race.push.bytes >= race.ship.bytes) {
    failed.push_back("pushing selections does not ship fewer bytes: " +
                     Describe("coord-ship", race.ship) + "; " +
                     Describe("coord-push", race.push));
  }
  return failed;
}

std::vector<std::string> FailedRaceShape(const Race& race) {
  std::vector<std::string> failed;
  for (const auto& [arch, r] : {std::pair{"mqp", &race.mqp},
                                std::pair{"coord-ship", &race.ship},
                                std::pair{"coord-push", &race.push}}) {
    const bool partial = r->ok && !r->complete && r->results > 0 &&
                         r->results < race.expected;
    const bool timely =
        r == &race.mqp || r->latency >= kRaceCoordinatorTimeout;
    if (!partial || !timely) {
      failed.push_back(Describe(arch, *r) + ", want a partial of " +
                       std::to_string(race.expected) +
                       (r == &race.mqp ? "" : " at the timeout"));
    }
  }
  return failed;
}

}  // namespace mqp::workload
