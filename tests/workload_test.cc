// Workload generator tests: determinism, schema shape, ground-truth
// helpers, and the standard network builder.
#include <gtest/gtest.h>

#include <set>

#include "net/simulator.h"
#include "common/strings.h"
#include "workload/cd_market.h"
#include "workload/garage_sale.h"
#include "workload/gene_expression.h"
#include "workload/network_builder.h"
#include "xml/writer.h"

namespace mqp::workload {
namespace {

TEST(GarageSaleTest, DeterministicForSameSeed) {
  GarageSaleGenerator a(7), b(7);
  auto sa = a.MakeSellers(10);
  auto sb = b.MakeSellers(10);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].cell, sb[i].cell);
  }
  auto ia = a.MakeItems(sa[0], 5);
  auto ib = b.MakeItems(sb[0], 5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(ia[i]->Equals(*ib[i]));
  }
}

// A generator numbers its sellers on across calls: ChurnScenario draws
// each joiner with its own MakeSellers(1), and a name that restarted at
// seller-0 collided with the first seller's items and image refs.
TEST(GarageSaleTest, SellerNamesContinueAcrossCalls) {
  GarageSaleGenerator gen(7);
  auto first = gen.MakeSellers(3);
  auto second = gen.MakeSellers(2);
  std::set<std::string> names;
  for (const auto& s : first) names.insert(s.name);
  for (const auto& s : second) names.insert(s.name);
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(second[0].name, "seller-3");
}

TEST(GarageSaleTest, ItemsCarryCoordinatesAndSchema) {
  GarageSaleGenerator gen(3);
  auto sellers = gen.MakeSellers(4);
  for (const auto& s : sellers) {
    auto items = gen.MakeItems(s, 3);
    for (const auto& item : items) {
      EXPECT_EQ(item->name(), "item");
      EXPECT_EQ(item->ChildText("location"), s.cell.coord(0).ToString());
      EXPECT_EQ(item->ChildText("category"), s.cell.coord(1).ToString());
      double price = 0;
      EXPECT_TRUE(ParseDouble(item->ChildText("price"), &price));
      EXPECT_GT(price, 0);
      EXPECT_FALSE(item->ChildText("name").empty());
      EXPECT_FALSE(item->ChildText("condition").empty());
      EXPECT_FALSE(item->ChildText("seller").empty());
    }
  }
}

TEST(GarageSaleTest, SellerCellsAreLeafCategories) {
  GarageSaleGenerator gen(11);
  const auto& hierarchy = gen.hierarchy();
  for (const auto& s : gen.MakeSellers(20)) {
    EXPECT_TRUE(hierarchy.dimension(0).Contains(s.cell.coord(0)));
    EXPECT_TRUE(hierarchy.dimension(1).Contains(s.cell.coord(1)));
    EXPECT_TRUE(hierarchy.dimension(0).ChildrenOf(s.cell.coord(0)).empty());
  }
}

TEST(GarageSaleTest, CountInAreaMatchesItemInArea) {
  GarageSaleGenerator gen(13);
  auto sellers = gen.MakeSellers(6);
  algebra::ItemSet all;
  for (const auto& s : sellers) {
    auto items = gen.MakeItems(s, 4);
    all.insert(all.end(), items.begin(), items.end());
  }
  auto area = *ns::InterestArea::Parse("(USA,*)");
  size_t direct = 0;
  for (const auto& item : all) {
    if (GarageSaleGenerator::ItemInArea(*item, area)) ++direct;
  }
  EXPECT_EQ(GarageSaleGenerator::CountInArea(all, area), direct);
  // Every item is inside the all-covering area.
  auto everything = *ns::InterestArea::Parse("(*,*)");
  EXPECT_EQ(GarageSaleGenerator::CountInArea(all, everything), all.size());
}

TEST(CdMarketTest, TitlesUniqueAndListingsCoverEveryTitle) {
  CdMarketGenerator gen(5);
  auto titles = gen.MakeTitles(30);
  std::set<std::string> unique(titles.begin(), titles.end());
  EXPECT_EQ(unique.size(), titles.size());
  auto listings = gen.MakeTrackListings(titles, 3);
  EXPECT_EQ(listings.size(), titles.size() * 3);
  std::set<std::string> listed;
  for (const auto& l : listings) {
    listed.insert(l->ChildText("CDtitle"));
  }
  EXPECT_EQ(listed.size(), unique.size());
}

TEST(CdMarketTest, SellerCdsDrawFromTitleList) {
  CdMarketGenerator gen(7);
  auto titles = gen.MakeTitles(10);
  std::set<std::string> valid(titles.begin(), titles.end());
  for (const auto& cd : gen.MakeSellerCds(titles, "s", 20)) {
    EXPECT_TRUE(valid.count(cd->ChildText("title")));
    double price = 0;
    ASSERT_TRUE(ParseDouble(cd->ChildText("price"), &price));
    EXPECT_GE(price, 4);
    EXPECT_LT(price, 26);
    EXPECT_EQ(cd->ChildText("seller"), "s");
  }
}

TEST(CdMarketTest, FavoriteSongsComeFromListings) {
  CdMarketGenerator gen(9);
  auto titles = gen.MakeTitles(8);
  auto listings = gen.MakeTrackListings(titles, 2);
  std::set<std::string> songs;
  for (const auto& l : listings) songs.insert(l->ChildText("song"));
  for (const auto& f : gen.MakeFavoriteSongs(listings, 6)) {
    EXPECT_TRUE(songs.count(f->ChildText("name")));
  }
}

TEST(CdMarketTest, Figure3PlanShape) {
  CdMarketGenerator gen(11);
  auto titles = gen.MakeTitles(4);
  auto listings = gen.MakeTrackListings(titles, 2);
  auto favorites = gen.MakeFavoriteSongs(listings, 3);
  auto plan = MakeFigure3Plan(favorites, "urn:F:a", "urn:T:b", "c:9", "10");
  EXPECT_EQ(plan.root()->type(), algebra::OpType::kDisplay);
  EXPECT_EQ(plan.target(), "c:9");
  EXPECT_EQ(plan.root()->UrnLeaves().size(), 2u);
  // The price select sits directly on the ForSale URN.
  const auto* join2 = plan.root()->child(0).get();
  const auto* join1 = join2->child(0).get();
  EXPECT_EQ(join1->child(0)->type(), algebra::OpType::kSelect);
  EXPECT_EQ(join1->child(0)->child(0)->urn(), "urn:F:a");
}

TEST(GeneExpressionTest, FigureOneGroupsMatchPaper) {
  GeneExpressionGenerator gen(1);
  auto groups = gen.FigureOneGroups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].name, "fly-neuro");
  // The fly group cannot overlap a mammalian query; the other two can.
  auto query = *ns::InterestArea::Parse(
      "(Coelomata.Deuterostomia.Mammalia,Muscle.Cardiac)");
  EXPECT_FALSE(groups[0].area.Overlaps(query));
  EXPECT_TRUE(groups[1].area.Overlaps(query));
  EXPECT_TRUE(groups[2].area.Overlaps(query));
}

TEST(GeneExpressionTest, ExperimentsStayInsideGroupArea) {
  GeneExpressionGenerator gen(2);
  for (const auto& g : gen.FigureOneGroups()) {
    for (const auto& e : gen.MakeExperiments(g, 25)) {
      auto org = ns::CategoryPath::Parse(e->ChildText("organism"));
      auto cell = ns::CategoryPath::Parse(e->ChildText("celltype"));
      ASSERT_TRUE(org.ok() && cell.ok());
      ns::InterestCell c({*org, *cell});
      bool covered = false;
      for (const auto& ac : g.area.cells()) {
        if (ac.Covers(c)) covered = true;
      }
      EXPECT_TRUE(covered) << g.name << ": " << c.ToString();
    }
  }
}

TEST(GeneExpressionTest, RandomGroupsAreValidAreas) {
  GeneExpressionGenerator gen(3);
  for (const auto& g : gen.RandomGroups(20)) {
    EXPECT_FALSE(g.area.empty());
    const ns::MultiHierarchy& h = gen.hierarchy();
    for (const auto& c : g.area.cells()) {
      ASSERT_EQ(c.coords().size(), h.dimension_count());
      for (size_t i = 0; i < c.coords().size(); ++i) {
        EXPECT_TRUE(h.dimension(i).Contains(c.coords()[i])) << c.ToString();
      }
    }
  }
}

TEST(NetworkBuilderTest, TopologyShape) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 9;
  params.items_per_seller = 2;
  auto net = BuildGarageSaleNetwork(&sim, params);
  EXPECT_NE(net.client, nullptr);
  EXPECT_NE(net.top_meta, nullptr);
  EXPECT_EQ(net.index_servers.size(), 4u);
  EXPECT_EQ(net.sellers.size(), 9u);
  EXPECT_EQ(net.all_items.size(), 18u);
  EXPECT_TRUE(net.top_meta->options().roles.meta_index);
  EXPECT_TRUE(net.top_meta->options().roles.authoritative);
  // IndexFor maps a seller to a covering index server.
  for (size_t i = 0; i < net.sellers.size(); ++i) {
    peer::Peer* idx = net.IndexFor(net.seller_specs[i].cell);
    EXPECT_TRUE(idx->options().interest.Overlaps(
        ns::InterestArea(net.seller_specs[i].cell)));
  }
}

TEST(NetworkBuilderTest, SimulatorDrainedAfterBuild) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = 4;
  auto net = BuildGarageSaleNetwork(&sim, params);
  EXPECT_TRUE(sim.Idle());
  (void)net;
}

TEST(NetworkBuilderTest, AreaQueryPlanShape) {
  auto area = *ns::InterestArea::Parse("(USA,Music)");
  auto plan = MakeAreaQueryPlan(area);
  EXPECT_EQ(plan.root()->type(), algebra::OpType::kDisplay);
  EXPECT_EQ(plan.root()->child(0)->type(), algebra::OpType::kUrn);
  auto with_pred =
      MakeAreaQueryPlan(area, algebra::FieldLess("price", "9"));
  EXPECT_EQ(with_pred.root()->child(0)->type(), algebra::OpType::kSelect);
}

}  // namespace
}  // namespace mqp::workload
