#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/catalog.h"
#include "catalog/intension.h"
#include "ns/urn.h"

namespace mqp::catalog {
namespace {

using ns::InterestArea;
using ns::MakeArea;

TEST(HoldingRefTest, ParseToStringRoundTrip) {
  for (const char* text :
       {"base[(USA.OR.Portland,*)]@10.0.0.7:9020",
        "index[(USA.OR,SportingGoods)]@R",
        "base[(USA.OR.Portland,*)]@S{30}",
        "base[(USA.OR,Furniture)+(USA.WA,Furniture)]@T{5}"}) {
    auto ref = HoldingRef::Parse(text);
    ASSERT_TRUE(ref.ok()) << text << ": " << ref.status();
    EXPECT_EQ(ref->ToString(), text);
  }
}

TEST(HoldingRefTest, Malformed) {
  EXPECT_FALSE(HoldingRef::Parse("data[(a,b)]@X").ok());
  EXPECT_FALSE(HoldingRef::Parse("base[(a,b)]").ok());
  EXPECT_FALSE(HoldingRef::Parse("base[(a,b)]@").ok());
  EXPECT_FALSE(HoldingRef::Parse("base[(a,b)]@X{").ok());
  EXPECT_FALSE(HoldingRef::Parse("base[(a,b)]@X{-3}").ok());
}

TEST(IntensionalStatementTest, EqualsRoundTrip) {
  // The paper's §4.1 replication statement.
  const char* text =
      "base[(USA.OR.Portland,*)]@R = base[(USA.OR.Portland,*)]@S";
  auto st = IntensionalStatement::Parse(text);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->relation, IntensionRelation::kEquals);
  EXPECT_EQ(st->lhs.server, "R");
  ASSERT_EQ(st->rhs.size(), 1u);
  EXPECT_EQ(st->rhs[0].server, "S");
  EXPECT_EQ(st->ToString(), text);
}

TEST(IntensionalStatementTest, ContainsWithDelay) {
  // §4.3: R replicates S for Portland with up to 30 minutes lag.
  const char* text =
      "base[(USA.OR.Portland,*)]@R >= base[(USA.OR.Portland,*)]@S{30}";
  auto st = IntensionalStatement::Parse(text);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->relation, IntensionRelation::kContains);
  EXPECT_EQ(st->rhs[0].delay_minutes, 30);
  EXPECT_EQ(st->ToString(), text);
}

TEST(IntensionalStatementTest, UnionRhs) {
  // §4.1: R's index covers base data at S, T and U.
  const char* text =
      "index[(USA.OR,SportingGoods.GolfClubs)]@R = "
      "base[(USA.OR,SportingGoods.GolfClubs)]@S + "
      "base[(USA.OR,SportingGoods.GolfClubs)]@T + "
      "base[(USA.OR,SportingGoods.GolfClubs)]@U";
  auto st = IntensionalStatement::Parse(text);
  ASSERT_TRUE(st.ok()) << st.status();
  ASSERT_EQ(st->rhs.size(), 3u);
  EXPECT_EQ(st->rhs[2].server, "U");
  EXPECT_EQ(st->ToString(), text);
}

TEST(IntensionalStatementTest, AreaWithPlusInsideCells) {
  const char* text =
      "base[(USA.OR,Furniture)+(USA.WA,Furniture)]@A = "
      "base[(USA.OR,Furniture)+(USA.WA,Furniture)]@B";
  auto st = IntensionalStatement::Parse(text);
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->lhs.area.size(), 2u);
  EXPECT_EQ(st->ToString(), text);
}

IndexEntry Entry(HoldingLevel level, const std::string& area,
                 const std::string& server, const std::string& xpath = "",
                 int delay = 0) {
  IndexEntry e;
  e.level = level;
  e.area = *InterestArea::Parse(area);
  e.server = server;
  e.xpath = xpath;
  e.delay_minutes = delay;
  return e;
}

TEST(CatalogTest, NamedMappingResolvesToUnionOfUrls) {
  Catalog cat;
  cat.AddNamedMapping("urn:ForSale:Portland-CDs", "10.1.2.3:9020",
                      "/data[id=1]");
  cat.AddNamedMapping("urn:ForSale:Portland-CDs", "10.2.3.4:9020",
                      "/data[id=2]");
  auto binding = cat.Resolve("urn:ForSale:Portland-CDs");
  ASSERT_TRUE(binding.ok()) << binding.status();
  ASSERT_EQ(binding->alternatives.size(), 1u);
  ASSERT_EQ(binding->alternatives[0].sources.size(), 2u);
  EXPECT_EQ(binding->alternatives[0].sources[0].server, "10.1.2.3:9020");

  // Figure 4(a): the plan fragment is a union of the two seller URLs.
  auto plan = BindingToPlan(*binding);
  EXPECT_EQ(plan->type(), algebra::OpType::kUnion);
  EXPECT_EQ(plan->children().size(), 2u);
  EXPECT_EQ(plan->child(0)->type(), algebra::OpType::kUrl);
}

TEST(CatalogTest, UnknownUrnIsEmptyBinding) {
  Catalog cat;
  auto binding = cat.Resolve("urn:ForSale:Nothing");
  ASSERT_TRUE(binding.ok());
  EXPECT_TRUE(binding->empty());
  EXPECT_FALSE(cat.Resolve("garbage").ok());
}

TEST(CatalogTest, AreaResolutionFindsOverlappingEntries) {
  Catalog cat;
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA.OR.Portland,Music)", "A",
                     "/data[id=1]"));
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA.OR,SportingGoods)", "B",
                     "/data[id=2]"));
  cat.AddEntry(Entry(HoldingLevel::kBase, "(France,Music)", "C",
                     "/data[id=3]"));
  auto binding =
      cat.ResolveArea(*InterestArea::Parse("(USA.OR.Portland,Music.CDs)"),
                      "urn:InterestArea:(USA.OR.Portland,Music.CDs)");
  ASSERT_EQ(binding.alternatives.size(), 1u);
  ASSERT_EQ(binding.alternatives[0].sources.size(), 1u);
  EXPECT_EQ(binding.alternatives[0].sources[0].server, "A");
  // The portion is narrowed to the intersection.
  EXPECT_EQ(binding.alternatives[0].sources[0].portion.ToString(),
            "(USA.OR.Portland,Music.CDs)");
}

TEST(CatalogTest, MetaLevelReferralsBecomeHintedUrns) {
  Catalog cat;
  cat.AddEntry(Entry(HoldingLevel::kIndex, "(USA.OR,*)", "IDX"));
  auto area = *InterestArea::Parse("(USA.OR.Portland,Music)");
  auto binding = cat.ResolveArea(area, ns::AreaToUrn(area).ToString());
  ASSERT_EQ(binding.alternatives.size(), 1u);
  auto plan = BindingToPlan(binding);
  ASSERT_EQ(plan->type(), algebra::OpType::kUrn);
  EXPECT_EQ(plan->urn_hint(), "IDX");
  // The referral URN carries the narrowed portion.
  EXPECT_EQ(plan->urn(), "urn:InterestArea:(USA.OR.Portland,Music)");
}

TEST(CatalogTest, ExampleOneRedundancyPrunesOneServer) {
  // Paper §4.2 Example 1: R ([Portland, Recreation]) and S ([Oregon,
  // Sporting Goods]) hold identical Portland sporting goods (modelling
  // SportingGoods as Recreation/SportingGoods so the areas are comparable);
  // the binding should offer an alternative that visits only one of them.
  Catalog cat;
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA.OR.Portland,Recreation)",
                     "R", "/data[id=r]"));
  cat.AddEntry(Entry(HoldingLevel::kBase,
                     "(USA.OR,Recreation.SportingGoods)", "S",
                     "/data[id=s]"));
  auto st = IntensionalStatement::Parse(
      "base[(USA.OR.Portland,Recreation.SportingGoods)]@R = "
      "base[(USA.OR.Portland,Recreation.SportingGoods)]@S");
  ASSERT_TRUE(st.ok());
  cat.AddStatement(*st);

  auto request =
      *InterestArea::Parse("(USA.OR.Portland,Recreation.SportingGoods)");
  auto binding = cat.ResolveArea(request, ns::AreaToUrn(request).ToString());
  ASSERT_GE(binding.alternatives.size(), 1u);
  // The binding collapses to a single server — "it need not go to both";
  // the redundant R ∪ S union is not offered.
  EXPECT_EQ(binding.alternatives[0].sources.size(), 1u);
  for (const auto& alt : binding.alternatives) {
    EXPECT_LE(alt.sources.size(), 1u) << binding.ToString();
  }

  // Without statements, only the 2-server answer exists.
  cat.set_use_statements(false);
  auto plain = cat.ResolveArea(request, "");
  ASSERT_EQ(plain.alternatives.size(), 1u);
  EXPECT_EQ(plain.alternatives[0].sources.size(), 2u);
}

TEST(CatalogTest, ExampleTwoIndexCoverage) {
  // Paper §4.2 Example 2: R's index covers exactly the bases S, T, U.
  Catalog cat;
  auto st = IntensionalStatement::Parse(
      "index[(USA.OR,SportingGoods.GolfClubs)]@R = "
      "base[(USA.OR,SportingGoods.GolfClubs)]@S + "
      "base[(USA.OR,SportingGoods.GolfClubs)]@T + "
      "base[(USA.OR,SportingGoods.GolfClubs)]@U");
  ASSERT_TRUE(st.ok()) << st.status();
  cat.AddStatement(*st);
  cat.AddEntry(Entry(HoldingLevel::kIndex, "(USA.OR,*)", "R"));

  auto request =
      *InterestArea::Parse("(USA.OR.Portland,SportingGoods.GolfClubs)");
  auto binding = cat.ResolveArea(request, ns::AreaToUrn(request).ToString());
  // Alternatives: route via index R, or go directly to S ∪ T ∪ U.
  bool has_index_alt = false;
  bool has_direct_alt = false;
  for (const auto& alt : binding.alternatives) {
    if (alt.sources.size() == 1 &&
        alt.sources[0].level == HoldingLevel::kIndex &&
        alt.sources[0].server == "R") {
      has_index_alt = true;
    }
    if (alt.sources.size() == 3) has_direct_alt = true;
  }
  EXPECT_TRUE(has_index_alt) << binding.ToString();
  EXPECT_TRUE(has_direct_alt) << binding.ToString();
}

TEST(CatalogTest, ExampleThreeContainmentWithDelay) {
  // Paper §4.3: R ⊇ S{30} for Portland. Binding:
  // R{30} | (R ∪ S){0}.
  Catalog cat;
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA.OR.Portland,*)", "R",
                     "/data[id=r]"));
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA.OR.Portland,*)", "S",
                     "/data[id=s]"));
  auto st = IntensionalStatement::Parse(
      "base[(USA.OR.Portland,*)]@R >= base[(USA.OR.Portland,*)]@S{30}");
  ASSERT_TRUE(st.ok());
  cat.AddStatement(*st);

  auto request = *InterestArea::Parse("(USA.OR.Portland,Music.CDs)");
  auto binding = cat.ResolveArea(request, ns::AreaToUrn(request).ToString());
  bool has_stale_single = false;
  bool has_fresh_pair = false;
  for (const auto& alt : binding.alternatives) {
    if (alt.sources.size() == 1 && alt.sources[0].server == "R" &&
        alt.sources[0].staleness_minutes == 30) {
      has_stale_single = true;
    }
    if (alt.sources.size() == 2 &&
        std::max(alt.sources[0].staleness_minutes,
                 alt.sources[1].staleness_minutes) == 0) {
      has_fresh_pair = true;
    }
  }
  EXPECT_TRUE(has_stale_single) << binding.ToString();
  EXPECT_TRUE(has_fresh_pair) << binding.ToString();
}

TEST(CatalogTest, RemoveServerDropsEntries) {
  Catalog cat;
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA,*)", "A", "/data[id=1]"));
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA,*)", "B", "/data[id=2]"));
  cat.AddNamedMapping("urn:X:Y", "A", "/data[id=3]");
  cat.RemoveServer("A");
  auto area = *InterestArea::Parse("(USA.OR,Music)");
  auto binding = cat.ResolveArea(area, "");
  ASSERT_EQ(binding.alternatives.size(), 1u);
  ASSERT_EQ(binding.alternatives[0].sources.size(), 1u);
  EXPECT_EQ(binding.alternatives[0].sources[0].server, "B");
  auto named = cat.Resolve("urn:X:Y");
  ASSERT_TRUE(named.ok());
  EXPECT_TRUE(named->empty());
}

TEST(CatalogTest, RemoveServerDropsReferencingStatements) {
  // Regression: statements referencing a departed server used to linger —
  // an equality statement would keep pruning the *live* replica out of
  // bindings in favor of the dead one.
  Catalog cat;
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA,*)", "A", "/data[id=1]"));
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA,*)", "B", "/data[id=2]"));
  cat.AddEntry(Entry(HoldingLevel::kBase, "(France,*)", "C", "/data[id=3]"));
  cat.AddStatement(
      *IntensionalStatement::Parse("base[(USA,*)]@A = base[(USA,*)]@B"));
  cat.AddStatement(
      *IntensionalStatement::Parse("base[(France,*)]@C >= base[(France,*)]@D{10}"));
  cat.RemoveServer("A");
  // The A = B statement names A on the lhs: gone. The C >= D statement
  // does not mention A: kept.
  ASSERT_EQ(cat.statements().size(), 1u);
  EXPECT_EQ(cat.statements()[0].lhs.server, "C");
  // B must now bind alone, not be pruned by the stale equality.
  auto binding = cat.ResolveArea(*InterestArea::Parse("(USA.OR,*)"), "");
  ASSERT_EQ(binding.alternatives.size(), 1u);
  ASSERT_EQ(binding.alternatives[0].sources.size(), 1u);
  EXPECT_EQ(binding.alternatives[0].sources[0].server, "B");
  // Statements naming the departed server on the *rhs* are dropped too.
  cat.RemoveServer("D");
  EXPECT_TRUE(cat.statements().empty());
}

TEST(CatalogTest, RemoveExactEntry) {
  Catalog cat;
  auto a = Entry(HoldingLevel::kBase, "(USA,*)", "A", "/data[id=1]");
  auto b = Entry(HoldingLevel::kBase, "(USA,*)", "A", "/data[id=2]");
  cat.AddEntry(a);
  cat.AddEntry(b);
  EXPECT_TRUE(cat.RemoveEntry(a));
  EXPECT_FALSE(cat.RemoveEntry(a));  // already gone
  ASSERT_EQ(cat.entries().size(), 1u);
  EXPECT_EQ(cat.entries()[0].xpath, "/data[id=2]");
  cat.AddNamedMapping("urn:X:Y", "A", "/data[id=3]");
  IndexEntry named;
  named.level = HoldingLevel::kBase;
  named.server = "A";
  named.xpath = "/data[id=3]";
  EXPECT_TRUE(cat.RemoveNamedEntry("urn:X:Y", named));
  EXPECT_FALSE(cat.RemoveNamedEntry("urn:X:Y", named));
  auto resolved = cat.Resolve("urn:X:Y");
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->empty());
}

TEST(CatalogTest, DuplicateEntriesAndStatementsIgnored) {
  Catalog cat;
  auto e = Entry(HoldingLevel::kBase, "(USA,*)", "A", "/data[id=1]");
  cat.AddEntry(e);
  cat.AddEntry(e);
  EXPECT_EQ(cat.entries().size(), 1u);
  auto st = *IntensionalStatement::Parse("base[(USA,*)]@A = base[(USA,*)]@B");
  cat.AddStatement(st);
  cat.AddStatement(st);
  EXPECT_EQ(cat.statements().size(), 1u);
}

TEST(CatalogTest, ApproximatesUnknownCategoriesToAncestors) {
  // §3.5 / Walker [W80]: "we could rewrite a reference to
  // USA/OR/Portland into USA/OR, with a possible loss of precision, but
  // no loss of recall."
  Catalog cat;
  static const ns::MultiHierarchy hierarchy = ns::MakeGarageSaleNamespace();
  cat.set_hierarchies(&hierarchy);
  // This catalog is authoritative for Oregon (the widened request must
  // still pass the §4.1 completeness gate).
  cat.SetAuthority(*InterestArea::Parse("(USA.OR,*)"), true);
  // A serves Portland CDs. A query for the unknown category "Music/Tapes"
  // diverges from "Music/CDs", so without approximation A is missed; the
  // rewrite to the known ancestor "Music" recovers it (wider, so recall
  // is preserved at the cost of precision).
  cat.AddEntry(Entry(HoldingLevel::kBase, "(USA.OR.Portland,Music.CDs)",
                     "A", "/data[id=1]"));
  auto request =
      *InterestArea::Parse("(USA.OR.Portland.Hawthorne,Music.Tapes)");
  auto approx = cat.ApproximateRequest(request);
  EXPECT_EQ(approx.ToString(), "(USA.OR.Portland,Music)");
  auto binding = cat.ResolveArea(request, "urn:x");
  ASSERT_EQ(binding.alternatives.size(), 1u);
  EXPECT_EQ(binding.alternatives[0].sources[0].server, "A");
  // Without the namespace attached, the diverging category finds nothing.
  Catalog bare;
  bare.SetAuthority(*InterestArea::Parse("(USA.OR,*)"), true);
  bare.AddEntry(Entry(HoldingLevel::kBase, "(USA.OR.Portland,Music.CDs)",
                      "A", "/data[id=1]"));
  EXPECT_TRUE(bare.ResolveArea(request, "urn:x").empty());
}

TEST(CatalogTest, BindingToPlanWithStalenessAnnotation) {
  Binding binding;
  binding.urn = "urn:InterestArea:(USA,*)";
  BindingAlternative stale;
  stale.sources.push_back({HoldingLevel::kBase, "R", "/data[id=1]",
                           *InterestArea::Parse("(USA,*)"), 30});
  BindingAlternative fresh;
  fresh.sources.push_back({HoldingLevel::kBase, "R", "/data[id=1]",
                           *InterestArea::Parse("(USA,*)"), 0});
  fresh.sources.push_back({HoldingLevel::kBase, "S", "/data[id=2]",
                           *InterestArea::Parse("(USA,*)"), 0});
  binding.alternatives = {stale, fresh};
  auto plan = BindingToPlan(binding);
  ASSERT_EQ(plan->type(), algebra::OpType::kOr);
  ASSERT_EQ(plan->children().size(), 2u);
  EXPECT_EQ(plan->child(0)->annotations().staleness_minutes, 30);
  EXPECT_EQ(plan->child(1)->type(), algebra::OpType::kUnion);
}

}  // namespace
}  // namespace mqp::catalog
