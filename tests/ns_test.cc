#include <gtest/gtest.h>

#include "common/rng.h"
#include "ns/category_path.h"
#include "ns/hierarchy.h"
#include "ns/interest.h"
#include "ns/urn.h"

namespace mqp::ns {
namespace {

TEST(CategoryPathTest, ParseSlashAndDotForms) {
  auto p = CategoryPath::Parse("USA/OR/Portland");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->depth(), 3u);
  EXPECT_EQ(p->leaf(), "Portland");
  auto q = CategoryPath::Parse("USA.OR.Portland");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*p, *q);
}

TEST(CategoryPathTest, TopForms) {
  for (const char* s : {"*", "", "  "}) {
    auto p = CategoryPath::Parse(s);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p->IsTop());
    EXPECT_EQ(p->ToString(), "*");
  }
}

TEST(CategoryPathTest, EmptySegmentRejected) {
  EXPECT_FALSE(CategoryPath::Parse("USA//Portland").ok());
  EXPECT_FALSE(CategoryPath::Parse("USA..Portland").ok());
}

TEST(CategoryPathTest, ParentChild) {
  auto p = *CategoryPath::Parse("USA/OR");
  EXPECT_EQ(p.Child("Eugene").ToString(), "USA/OR/Eugene");
}

TEST(CategoryPathTest, AncestorSemantics) {
  auto top = CategoryPath();
  auto usa = *CategoryPath::Parse("USA");
  auto orstate = *CategoryPath::Parse("USA/OR");
  auto pdx = *CategoryPath::Parse("USA/OR/Portland");
  auto fr = *CategoryPath::Parse("France");
  EXPECT_TRUE(top.IsAncestorOrSame(pdx));
  EXPECT_TRUE(usa.IsAncestorOrSame(pdx));
  EXPECT_TRUE(orstate.IsAncestorOrSame(pdx));
  EXPECT_TRUE(pdx.IsAncestorOrSame(pdx));
  EXPECT_FALSE(pdx.IsAncestorOrSame(orstate));
  EXPECT_FALSE(fr.IsAncestorOrSame(pdx));
  EXPECT_TRUE(pdx.Comparable(usa));
  EXPECT_FALSE(fr.Comparable(usa));
}

TEST(HierarchyTest, AddCreatesAncestors) {
  Hierarchy h("Location");
  ASSERT_TRUE(h.AddPath("USA/OR/Portland").ok());
  EXPECT_TRUE(h.Contains(*CategoryPath::Parse("USA")));
  EXPECT_TRUE(h.Contains(*CategoryPath::Parse("USA/OR")));
  EXPECT_TRUE(h.Contains(CategoryPath()));
  EXPECT_FALSE(h.Contains(*CategoryPath::Parse("USA/WA")));
}

TEST(HierarchyTest, ChildrenOf) {
  Hierarchy h("Loc");
  (void)h.AddPath("USA/OR");
  (void)h.AddPath("USA/WA");
  (void)h.AddPath("France");
  auto top_children = h.ChildrenOf(CategoryPath());
  EXPECT_EQ(top_children.size(), 2u);
  auto usa_children = h.ChildrenOf(*CategoryPath::Parse("USA"));
  ASSERT_EQ(usa_children.size(), 2u);
  EXPECT_EQ(usa_children[0].ToString(), "USA/OR");
}

TEST(HierarchyTest, LeavesAndAll) {
  Hierarchy h("Loc");
  (void)h.AddPath("USA/OR/Portland");
  (void)h.AddPath("USA/OR/Eugene");
  EXPECT_EQ(h.Leaves().size(), 2u);
  // *, USA, USA/OR, 2 cities
  EXPECT_EQ(h.AllCategories().size(), 5u);
  EXPECT_EQ(h.size(), 5u);
}

TEST(HierarchyTest, ApproximateFallsBackToAncestor) {
  Hierarchy h("Loc");
  (void)h.AddPath("USA/OR");
  auto approx = h.Approximate(*CategoryPath::Parse("USA/OR/Portland"));
  EXPECT_EQ(approx.ToString(), "USA/OR");
  approx = h.Approximate(*CategoryPath::Parse("Japan/Tokyo"));
  EXPECT_TRUE(approx.IsTop());
}

TEST(MultiHierarchyTest, ValidateChecksEveryDimension) {
  MultiHierarchy ns = MakeGarageSaleNamespace();
  EXPECT_EQ(ns.dimension_count(), 2u);
  EXPECT_TRUE(ns.DimensionIndex("Location").ok());
  EXPECT_TRUE(ns.DimensionIndex("Merchandise").ok());
  EXPECT_FALSE(ns.DimensionIndex("Color").ok());

  auto ok_cell = MakeCell({"USA/OR/Portland", "Music/CDs"});
  EXPECT_TRUE(ns.dimension(0).Contains(ok_cell.coords()[0]));
  EXPECT_TRUE(ns.dimension(1).Contains(ok_cell.coords()[1]));
  auto bad_cell = MakeCell({"USA/OR/Portland", "Music/Tapes"});
  EXPECT_FALSE(ns.dimension(1).Contains(bad_cell.coords()[1]));
}

TEST(InterestCellTest, CoversIsPerDimensionAncestor) {
  auto big = MakeCell({"USA", "Furniture"});
  auto small = MakeCell({"USA/OR/Portland", "Furniture/Chairs"});
  EXPECT_TRUE(big.Covers(small));
  EXPECT_FALSE(small.Covers(big));
  EXPECT_TRUE(big.Covers(big));
  // Mismatched in one dimension: no coverage.
  auto other = MakeCell({"USA/OR/Portland", "Electronics"});
  EXPECT_FALSE(big.Covers(other) && other.Covers(big));
  EXPECT_FALSE(MakeCell({"USA", "Furniture"})
                   .Covers(MakeCell({"France", "Furniture"})));
}

TEST(InterestCellTest, TopCellCoversEverything) {
  auto top = MakeCell({"*", "*"});
  EXPECT_TRUE(top.IsTop());
  EXPECT_TRUE(top.Covers(MakeCell({"France/IDF/Paris", "Music/CDs"})));
}

TEST(InterestCellTest, DimensionalityMismatchNeverCovers) {
  EXPECT_FALSE(MakeCell({"USA"}).Covers(MakeCell({"USA", "Furniture"})));
  EXPECT_FALSE(MakeCell({"USA", "Furniture"}).Covers(MakeCell({"USA"})));
}

TEST(InterestCellTest, OverlapAndIntersect) {
  // Paper §4.1: [Portland, Sporting Goods] and [Oregon, Golf Clubs]
  // overlap on [Portland, Golf Clubs].
  auto a = MakeCell({"USA/OR/Portland", "SportingGoods"});
  auto b = MakeCell({"USA/OR", "SportingGoods/GolfClubs"});
  EXPECT_TRUE(a.Overlaps(b));
  auto inter = a.Intersect(b);
  ASSERT_TRUE(inter.ok());
  EXPECT_EQ(inter->ToString(), "(USA.OR.Portland,SportingGoods.GolfClubs)");

  auto c = MakeCell({"France", "SportingGoods"});
  EXPECT_FALSE(a.Overlaps(c));
  EXPECT_FALSE(a.Intersect(c).ok());
}

TEST(InterestCellTest, CoverageImpliesOverlap) {
  auto big = MakeCell({"USA", "*"});
  auto small = MakeCell({"USA/WA", "Electronics/TV"});
  EXPECT_TRUE(big.Covers(small));
  EXPECT_TRUE(big.Overlaps(small));
  EXPECT_TRUE(small.Overlaps(big));
}

TEST(InterestAreaTest, ParseAndToString) {
  auto area = InterestArea::Parse(
      "(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)");
  ASSERT_TRUE(area.ok()) << area.status();
  EXPECT_EQ(area->size(), 2u);
  EXPECT_EQ(area->ToString(),
            "(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)");
}

TEST(InterestAreaTest, FigureFiveAreas) {
  // Area (a): Vancouver-Portland furniture; area (b): everything in
  // Portland.
  auto a = InterestArea::Parse(
      "(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)");
  auto b = InterestArea::Parse("(USA.OR.Portland,*)");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->Overlaps(*b));
  EXPECT_FALSE(a->Covers(*b));
  EXPECT_FALSE(b->Covers(*a));  // (b) doesn't include Vancouver
  auto inter = a->Intersect(*b);
  ASSERT_EQ(inter.size(), 1u);
  EXPECT_EQ(inter.ToString(), "(USA.OR.Portland,Furniture)");
}

TEST(InterestAreaTest, CoversNeedsEveryCellCovered) {
  auto big = *InterestArea::Parse("(USA,Furniture)+(USA,Music)");
  auto small = *InterestArea::Parse(
      "(USA.OR.Portland,Furniture.Chairs)+(USA.WA,Music.CDs)");
  EXPECT_TRUE(big.Covers(small));
  auto partial = *InterestArea::Parse("(USA,Furniture)");
  EXPECT_FALSE(partial.Covers(small));
}

TEST(InterestAreaTest, NormalizedDropsDominatedAndDuplicateCells) {
  auto area = *InterestArea::Parse(
      "(USA.OR,Furniture)+(USA,*)+(USA.OR,Furniture)+(France,Music)");
  auto norm = area.Normalized();
  EXPECT_EQ(norm.ToString(), "(France,Music)+(USA,*)");
}

TEST(InterestAreaTest, UnionNormalizes) {
  auto a = *InterestArea::Parse("(USA.OR,Furniture)");
  auto b = *InterestArea::Parse("(USA,*)");
  EXPECT_EQ(a.Union(b).ToString(), "(USA,*)");
}

TEST(InterestAreaTest, EmptyAreaBehaviour) {
  InterestArea empty;
  auto a = *InterestArea::Parse("(USA,*)");
  EXPECT_TRUE(a.Covers(empty));   // vacuous
  EXPECT_TRUE(empty.Covers(empty));
  EXPECT_FALSE(empty.Covers(a));
  EXPECT_FALSE(empty.Overlaps(a));
  EXPECT_EQ(empty.ToString(), "");
}

TEST(UrnTest, ParseRoundTrip) {
  auto u = Urn::Parse("urn:ForSale:Portland-CDs");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->nid(), "ForSale");
  EXPECT_EQ(u->nss(), "Portland-CDs");
  EXPECT_EQ(u->ToString(), "urn:ForSale:Portland-CDs");
  EXPECT_FALSE(u->IsInterestArea());
}

TEST(UrnTest, CaseInsensitiveScheme) {
  EXPECT_TRUE(Urn::Parse("URN:X:Y").ok());
  EXPECT_TRUE(Urn::Parse("Urn:X:Y").ok());
}

TEST(UrnTest, Malformed) {
  EXPECT_FALSE(Urn::Parse("urn:OnlyNid").ok());
  EXPECT_FALSE(Urn::Parse("notaurn:X:Y").ok());
  EXPECT_FALSE(Urn::Parse("urn::nss").ok());
  EXPECT_FALSE(Urn::Parse("urn:nid:").ok());
}

TEST(UrnTest, InterestAreaRoundTrip) {
  // The paper's §3.4 example URN.
  auto area = *InterestArea::Parse(
      "(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)");
  Urn urn = AreaToUrn(area);
  EXPECT_EQ(urn.ToString(),
            "urn:InterestArea:(USA.OR.Portland,Furniture)+"
            "(USA.WA.Vancouver,Furniture)");
  auto parsed = Urn::Parse(urn.ToString());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->IsInterestArea());
  auto back = parsed->ToInterestArea();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, area);
}

TEST(UrnTest, NonAreaUrnRejectsAreaDecode) {
  auto u = *Urn::Parse("urn:CD:TrackListings");
  EXPECT_FALSE(u.ToInterestArea().ok());
}

// --- property tests over random cells --------------------------------------

class CoverageProperties : public ::testing::TestWithParam<uint64_t> {};

InterestCell RandomCell(Rng* rng, const MultiHierarchy& ns) {
  std::vector<CategoryPath> coords;
  for (size_t d = 0; d < ns.dimension_count(); ++d) {
    auto all = ns.dimension(d).AllCategories();
    coords.push_back(all[rng->NextBelow(all.size())]);
  }
  return InterestCell(std::move(coords));
}

TEST_P(CoverageProperties, CoverageIsReflexiveTransitiveAndImpliesOverlap) {
  Rng rng(GetParam());
  MultiHierarchy ns = MakeGarageSaleNamespace();
  for (int i = 0; i < 50; ++i) {
    auto a = RandomCell(&rng, ns);
    auto b = RandomCell(&rng, ns);
    auto c = RandomCell(&rng, ns);
    EXPECT_TRUE(a.Covers(a));
    if (a.Covers(b) && b.Covers(c)) {
      EXPECT_TRUE(a.Covers(c)) << a.ToString() << " " << b.ToString() << " "
                               << c.ToString();
    }
    if (a.Covers(b)) {
      EXPECT_TRUE(a.Overlaps(b));
      EXPECT_TRUE(b.Overlaps(a));
    }
    // Overlap is symmetric.
    EXPECT_EQ(a.Overlaps(b), b.Overlaps(a));
    // Intersection is covered by both and overlaps both.
    if (a.Overlaps(b)) {
      auto inter = a.Intersect(b);
      ASSERT_TRUE(inter.ok());
      EXPECT_TRUE(a.Covers(*inter));
      EXPECT_TRUE(b.Covers(*inter));
    }
    // Antisymmetry: mutual coverage implies equality.
    if (a.Covers(b) && b.Covers(a)) {
      EXPECT_EQ(a, b);
    }
  }
}

TEST_P(CoverageProperties, AreaParseToStringRoundTrip) {
  Rng rng(GetParam());
  MultiHierarchy ns = MakeGarageSaleNamespace();
  InterestArea area;
  const uint64_t cells = 1 + rng.NextBelow(4);
  for (uint64_t i = 0; i < cells; ++i) {
    area.AddCell(RandomCell(&rng, ns));
  }
  auto parsed = InterestArea::Parse(area.ToString());
  ASSERT_TRUE(parsed.ok()) << area.ToString();
  EXPECT_EQ(*parsed, area);
  // Normalization is idempotent and preserves coverage both ways.
  auto norm = area.Normalized();
  EXPECT_EQ(norm.Normalized(), norm);
  EXPECT_TRUE(norm.Covers(area));
  EXPECT_TRUE(area.Covers(norm));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperties,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace mqp::ns
