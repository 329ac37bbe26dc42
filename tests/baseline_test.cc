#include <gtest/gtest.h>

#include "net/simulator.h"
#include "baseline/central_index.h"
#include "baseline/coordinator.h"
#include "baseline/flooding.h"
#include "common/strings.h"
#include "workload/network_builder.h"

namespace mqp::baseline {
namespace {

using workload::BuildGarageSaleNetwork;
using workload::GarageSaleGenerator;
using workload::GarageSaleNetworkParams;
using workload::MakeAreaQueryPlan;

TEST(CentralIndexTest, LookupAndFetchReturnsAllItems) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 10;
  params.items_per_seller = 6;
  params.seed = 19;
  auto net = BuildGarageSaleNetwork(&sim, params);

  // Build the omniscient index (mandatory registration in Napster).
  CentralIndexServer index(&sim);
  for (size_t i = 0; i < net.sellers.size(); ++i) {
    index.AddEntry(ns::InterestArea(net.seller_specs[i].cell),
                   net.sellers[i]->address(),
                   "/data[id=c" + std::to_string(i) + "]");
  }
  CentralIndexClient client(&sim, index.address());

  auto area = *ns::InterestArea::Parse("(USA,*)");
  CentralIndexClient::Outcome outcome;
  bool done = false;
  client.Run(MakeAreaQueryPlan(area), area,
             [&](const CentralIndexClient::Outcome& o) {
               outcome = o;
               done = true;
             });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  // Central fetch pulls whole collections; every USA seller's items come
  // back (collections are single-cell, so counts match the ground truth).
  EXPECT_EQ(outcome.items.size(),
            GarageSaleGenerator::CountInArea(net.all_items, area));
  EXPECT_GT(outcome.servers_contacted, 0u);
}

TEST(CentralIndexTest, EmptyAreaCompletesWithNothing) {
  net::Simulator sim;
  CentralIndexServer index(&sim);
  CentralIndexClient client(&sim, index.address());
  auto area = *ns::InterestArea::Parse("(France,Books)");
  bool done = false;
  CentralIndexClient::Outcome outcome;
  client.Run(MakeAreaQueryPlan(area), area,
             [&](const CentralIndexClient::Outcome& o) {
               outcome = o;
               done = true;
             });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.items.empty());
}

TEST(FloodingTest, HorizonLimitsReach) {
  net::Simulator sim;
  Rng rng(23);
  GarageSaleGenerator gen(23);
  auto sellers = gen.MakeSellers(30);

  std::vector<std::unique_ptr<FloodingPeer>> peers;
  FloodingClient client(&sim);
  std::vector<FloodingPeer*> all{&client};
  size_t total_relevant = 0;
  auto area = *ns::InterestArea::Parse("(USA,*)");
  for (const auto& s : sellers) {
    auto items = gen.MakeItems(s, 4);
    total_relevant += GarageSaleGenerator::CountInArea(items, area);
    peers.push_back(std::make_unique<FloodingPeer>(
        &sim, ns::InterestArea(s.cell), items));
    all.push_back(peers.back().get());
  }
  // A sparse line topology: horizon clearly limits reach.
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    all[i]->AddNeighbor(all[i + 1]->id());
    all[i + 1]->AddNeighbor(all[i]->id());
  }
  client.Query(area, /*horizon=*/3);
  sim.Run();
  const size_t with_small_horizon = client.CollectedItems().size();
  EXPECT_LT(with_small_horizon, total_relevant);

  const size_t hits_with_small_horizon = client.hits_received();
  client.Query(area, /*horizon=*/64);
  sim.Run();
  EXPECT_EQ(client.CollectedItems().size() - with_small_horizon,
            total_relevant);
  EXPECT_GT(client.hits_received() - hits_with_small_horizon, 0u);
}

TEST(FloodingTest, DuplicateFloodsDropped) {
  net::Simulator sim;
  Rng rng(29);
  GarageSaleGenerator gen(29);
  auto sellers = gen.MakeSellers(12);
  std::vector<std::unique_ptr<FloodingPeer>> peers;
  FloodingClient client(&sim);
  std::vector<FloodingPeer*> all{&client};
  for (const auto& s : sellers) {
    peers.push_back(std::make_unique<FloodingPeer>(
        &sim, ns::InterestArea(s.cell), gen.MakeItems(s, 3)));
    all.push_back(peers.back().get());
  }
  BuildRandomOverlay(all, /*degree=*/4, &rng);
  auto area = *ns::InterestArea::Parse("(USA,*)");
  client.Query(area, 10);
  sim.Run();
  // Each peer's items appear at most once despite many flood paths.
  const size_t expected = [&] {
    size_t n = 0;
    for (const auto& p : peers) {
      (void)p;
    }
    for (const auto& s : sellers) {
      auto items = gen.MakeItems(s, 3);
      (void)items;
    }
    return n;
  }();
  (void)expected;
  std::map<std::string, int> by_seller;
  for (const auto& item : client.CollectedItems()) {
    by_seller[item->ChildText("seller")]++;
  }
  for (const auto& [seller, count] : by_seller) {
    EXPECT_LE(count, 3) << seller << " duplicated";
  }
}

TEST(CoordinatorTest, ShipAllGathersEverythingThenFilters) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 8;
  params.items_per_seller = 5;
  params.seed = 31;
  auto net = BuildGarageSaleNetwork(&sim, params);
  Coordinator coord(&sim, Coordinator::Mode::kShipAll);
  for (size_t i = 0; i < net.sellers.size(); ++i) {
    coord.AddCatalogEntry(ns::InterestArea(net.seller_specs[i].cell),
                          net.sellers[i]->address(),
                          "/data[id=c" + std::to_string(i) + "]");
  }
  auto area = *ns::InterestArea::Parse("(USA,*)");
  bool done = false;
  Coordinator::Outcome outcome;
  coord.Run(MakeAreaQueryPlan(area, algebra::FieldLess("price", "100")),
            [&](const Coordinator::Outcome& o) {
              outcome = o;
              done = true;
            });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.complete);
  size_t expected = 0;
  for (const auto& item : net.all_items) {
    double price = 0;
    if (GarageSaleGenerator::ItemInArea(
            *item, area) &&
        ParseDouble(item->ChildText("price"), &price) && price < 100) {
      ++expected;
    }
  }
  EXPECT_EQ(outcome.items.size(), expected);
}

TEST(CoordinatorTest, PushSelectionsMovesFewerBytes) {
  GarageSaleNetworkParams params;
  params.num_sellers = 12;
  params.items_per_seller = 20;
  params.seed = 37;

  auto run_mode = [&](Coordinator::Mode mode) -> uint64_t {
    net::Simulator sim;
    auto net = BuildGarageSaleNetwork(&sim, params);
    Coordinator coord(&sim, mode);
    for (size_t i = 0; i < net.sellers.size(); ++i) {
      coord.AddCatalogEntry(ns::InterestArea(net.seller_specs[i].cell),
                            net.sellers[i]->address(),
                            "/data[id=c" + std::to_string(i) + "]");
    }
    sim.stats().Clear();
    bool done = false;
    coord.Run(MakeAreaQueryPlan(*ns::InterestArea::Parse("(USA,*)"),
                                algebra::FieldLess("price", "10")),
              [&](const Coordinator::Outcome&) { done = true; });
    sim.Run();
    EXPECT_TRUE(done);
    return sim.stats().bytes;
  };

  const uint64_t ship_all = run_mode(Coordinator::Mode::kShipAll);
  const uint64_t pushed = run_mode(Coordinator::Mode::kPushSelections);
  // price<10 is very selective; pushing the select saves bytes.
  EXPECT_LT(pushed, ship_all);
}

TEST(CoordinatorTest, FailedSourceTimesOutWithPartialAnswer) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 6;
  params.items_per_seller = 4;
  params.seed = 41;
  auto net = BuildGarageSaleNetwork(&sim, params);
  Coordinator coord(&sim, Coordinator::Mode::kShipAll,
                    /*timeout_seconds=*/5);
  for (size_t i = 0; i < net.sellers.size(); ++i) {
    coord.AddCatalogEntry(ns::InterestArea(net.seller_specs[i].cell),
                          net.sellers[i]->address(),
                          "/data[id=c" + std::to_string(i) + "]");
  }
  sim.Fail(net.sellers[0]->id());
  auto area = *ns::InterestArea::Parse("(*,*)");
  bool done = false;
  Coordinator::Outcome outcome;
  coord.Run(MakeAreaQueryPlan(area), [&](const Coordinator::Outcome& o) {
    outcome = o;
    done = true;
  });
  sim.Run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.sources_failed, 1u);
  // Everyone else's data still arrived.
  EXPECT_EQ(outcome.items.size(),
            net.all_items.size() - params.items_per_seller);
  // The answer arrived only after the full timeout.
  EXPECT_GE(outcome.finished_at - outcome.started_at, 5.0);
}

}  // namespace
}  // namespace mqp::baseline
