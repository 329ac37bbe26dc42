#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "algebra/plan_xml.h"
#include "engine/local_store.h"
#include "engine/operator.h"
#include "support/dom_parser.h"
#include "xml/writer.h"

namespace mqp::engine {
namespace {

using algebra::AggFunc;
using algebra::Expr;
using algebra::FieldEquals;
using algebra::FieldGreater;
using algebra::FieldLess;
using algebra::Item;
using algebra::ItemSet;
using algebra::JoinEq;
using algebra::PlanNode;

Item ItemFrom(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return Item(std::move(doc).value().release());
}

ItemSet Cds() {
  return {
      ItemFrom("<cd><title>Kind of Blue</title><price>8</price></cd>"),
      ItemFrom("<cd><title>Blue Train</title><price>12</price></cd>"),
      ItemFrom("<cd><title>Giant Steps</title><price>9</price></cd>"),
      ItemFrom("<cd><title>Kind of Blue</title><price>15</price></cd>"),
  };
}

TEST(EngineTest, DataScanYieldsAll) {
  auto r = Evaluate(*PlanNode::XmlData(Cds()));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 4u);
}

TEST(EngineTest, SelectFilters) {
  auto plan = PlanNode::Select(FieldLess("price", "10"),
                               PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0]->ChildText("title"), "Kind of Blue");
  EXPECT_EQ((*r)[1]->ChildText("title"), "Giant Steps");
}

TEST(EngineTest, SelectOnEmptyInput) {
  auto plan = PlanNode::Select(FieldLess("price", "10"),
                               PlanNode::XmlData({}));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(EngineTest, ProjectKeepsListedFields) {
  auto plan = PlanNode::Project({"title"}, PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 4u);
  EXPECT_NE((*r)[0]->Child("title"), nullptr);
  EXPECT_EQ((*r)[0]->Child("price"), nullptr);
  EXPECT_EQ((*r)[0]->name(), "cd");
}

TEST(EngineTest, HashJoinOnEquiKeys) {
  ItemSet listings = {
      ItemFrom("<l><CDtitle>Kind of Blue</CDtitle><song>So What</song></l>"),
      ItemFrom("<l><CDtitle>Giant Steps</CDtitle><song>Naima</song></l>"),
      ItemFrom("<l><CDtitle>Unknown</CDtitle><song>X</song></l>"),
  };
  auto plan = PlanNode::Join(JoinEq("title", "CDtitle"),
                             PlanNode::XmlData(Cds()),
                             PlanNode::XmlData(listings));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  // "Kind of Blue" appears twice on the left: 2 matches + 1 for Giant Steps.
  ASSERT_EQ(r->size(), 3u);
  // Merged items carry fields of both sides.
  EXPECT_EQ((*r)[0]->ChildText("song"), "So What");
  EXPECT_EQ((*r)[0]->ChildText("price"), "8");
}

TEST(EngineTest, ThetaJoinFallsBackToNestedLoops) {
  ItemSet caps = {ItemFrom("<cap><limit>10</limit></cap>"),
                  ItemFrom("<cap><limit>13</limit></cap>")};
  // price < limit — not an equi join.
  auto cond = Expr::Compare(algebra::CompareOp::kLt,
                            Expr::Field("price", algebra::Side::kLeft),
                            Expr::Field("limit", algebra::Side::kRight));
  auto plan = PlanNode::Join(cond, PlanNode::XmlData(Cds()),
                             PlanNode::XmlData(caps));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  // prices 8,12,9,15 against limits 10,13: 8<10,8<13,12<13,9<10,9<13 = 5
  EXPECT_EQ(r->size(), 5u);
}

TEST(EngineTest, JoinWithEmptySides) {
  auto plan = PlanNode::Join(JoinEq("a", "b"), PlanNode::XmlData({}),
                             PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  plan = PlanNode::Join(JoinEq("a", "b"), PlanNode::XmlData(Cds()),
                        PlanNode::XmlData({}));
  r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(EngineTest, UnionConcatenates) {
  auto plan = PlanNode::Union({PlanNode::XmlData(Cds()),
                               PlanNode::XmlData(Cds()),
                               PlanNode::XmlData({})});
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 8u);
}

TEST(EngineTest, OrEvaluatesFirstAlternative) {
  auto plan = PlanNode::Or({PlanNode::XmlData(Cds()),
                            PlanNode::UrnRef("urn:never:used")});
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 4u);
}

TEST(EngineTest, DifferenceIsMultiset) {
  ItemSet left = {ItemFrom("<i><v>1</v></i>"), ItemFrom("<i><v>1</v></i>"),
                  ItemFrom("<i><v>2</v></i>")};
  ItemSet right = {ItemFrom("<i><v>1</v></i>")};
  auto plan = PlanNode::Difference(PlanNode::XmlData(left),
                                   PlanNode::XmlData(right));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);  // one <v>1</v> survives
  EXPECT_EQ((*r)[0]->ChildText("v"), "1");
  EXPECT_EQ((*r)[1]->ChildText("v"), "2");
}

TEST(EngineTest, AggregateCount) {
  auto plan = PlanNode::Aggregate(AggFunc::kCount, "", "",
                                  PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0]->ChildText("count"), "4");
}

TEST(EngineTest, AggregateCountEmptyInputYieldsZero) {
  auto plan =
      PlanNode::Aggregate(AggFunc::kCount, "", "", PlanNode::XmlData({}));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0]->ChildText("count"), "0");
}

TEST(EngineTest, AggregateSumMinMaxAvg) {
  struct Case {
    AggFunc func;
    const char* name;
    const char* expect;
  } cases[] = {
      {AggFunc::kSum, "sum", "44"},
      {AggFunc::kMin, "min", "8"},
      {AggFunc::kMax, "max", "15"},
      {AggFunc::kAvg, "avg", "11"},
  };
  for (const auto& c : cases) {
    auto plan =
        PlanNode::Aggregate(c.func, "price", "", PlanNode::XmlData(Cds()));
    auto r = Evaluate(*plan);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1u);
    EXPECT_EQ((*r)[0]->ChildText(c.name), c.expect) << c.name;
  }
}

TEST(EngineTest, AggregateGroupBy) {
  auto plan = PlanNode::Aggregate(AggFunc::kCount, "", "title",
                                  PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 3u);  // three distinct titles
  // Groups come out in deterministic (sorted) order.
  EXPECT_EQ((*r)[0]->ChildText("group"), "Blue Train");
  EXPECT_EQ((*r)[0]->ChildText("count"), "1");
  EXPECT_EQ((*r)[2]->ChildText("group"), "Kind of Blue");
  EXPECT_EQ((*r)[2]->ChildText("count"), "2");
}

TEST(EngineTest, TopNOrdersAndLimits) {
  auto plan = PlanNode::TopN(2, "price", true, PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0]->ChildText("price"), "8");
  EXPECT_EQ((*r)[1]->ChildText("price"), "9");

  plan = PlanNode::TopN(1, "price", false, PlanNode::XmlData(Cds()));
  r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0]->ChildText("price"), "15");
}

TEST(EngineTest, TopNLimitBeyondInput) {
  auto plan = PlanNode::TopN(99, "price", true, PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
}

TEST(EngineTest, DisplayIsTransparent) {
  auto plan = PlanNode::Display("c:1", PlanNode::XmlData(Cds()));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
}

TEST(EngineTest, UnresolvedUrnIsError) {
  auto plan = PlanNode::Select(FieldLess("p", "1"),
                               PlanNode::UrnRef("urn:a:b"));
  auto r = Evaluate(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnresolved);
}

TEST(EngineTest, UrlWithoutSourceIsError) {
  auto plan = PlanNode::Url("somewhere:9020", "");
  auto r = Evaluate(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnresolved);
}

TEST(EngineTest, ComposedPipeline) {
  // select(price<13) -> project(title) -> topn(2, title asc)
  auto plan = PlanNode::TopN(
      2, "title", true,
      PlanNode::Project({"title"}, PlanNode::Select(FieldLess("price", "13"),
                                                    PlanNode::XmlData(Cds()))));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0]->ChildText("title"), "Blue Train");
  EXPECT_EQ((*r)[1]->ChildText("title"), "Giant Steps");
}

// The number of items Fetch returns for `xpath` ("" = every item).
size_t FetchCount(LocalStore* store, const std::string& xpath) {
  auto r = store->Fetch("", xpath);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->size() : 0;
}

size_t CollectionSize(LocalStore* store, const std::string& id) {
  return FetchCount(store, LocalStore::CollectionXPath(id));
}

TEST(LocalStoreTest, AddAndFetchByCollectionXPath) {
  LocalStore store;
  store.AddCollection("245", Cds());
  // Every item the store holds is in collection 245.
  EXPECT_EQ(FetchCount(&store, ""), 4u);
  EXPECT_EQ(CollectionSize(&store, "245"), 4u);

  auto r = store.Fetch("ignored", "/data[@id=245]");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 4u);

  r = store.Fetch("ignored", "/data[@id=999]");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(LocalStoreTest, EmptyXPathFetchesEverything) {
  LocalStore store;
  store.AddCollection("a", Cds());
  store.AddCollection("b", {ItemFrom("<x/>")});
  auto r = store.Fetch("", "");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
}

TEST(LocalStoreTest, DeepXPathSelectsElements) {
  LocalStore store;
  store.AddCollection("245", Cds());
  auto r = store.Fetch("", "/data[@id=245]/cd[price<10]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(LocalStoreTest, ReplaceAndRemove) {
  LocalStore store;
  store.AddCollection("c", Cds());
  store.ReplaceCollection("c", {ItemFrom("<only/>")});
  EXPECT_EQ(CollectionSize(&store, "c"), 1u);
  store.RemoveCollection("c");
  EXPECT_EQ(FetchCount(&store, ""), 0u);
  store.RemoveCollection("c");  // idempotent
}

TEST(LocalStoreTest, AddAppendsToExistingCollection) {
  LocalStore store;
  store.AddCollection("c", {ItemFrom("<a/>")});
  store.AddCollection("c", {ItemFrom("<b/>")});
  EXPECT_EQ(CollectionSize(&store, "c"), 2u);
}

TEST(LocalStoreTest, UrlLeafEvaluatesThroughStore) {
  LocalStore store;
  store.AddCollection("245", Cds());
  auto plan = PlanNode::Select(
      FieldLess("price", "10"),
      PlanNode::Url("local:9020", "/data[@id=245]"));
  auto r = Evaluate(*plan, &store);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
}

TEST(LocalStoreTest, CollectionXPathHelper) {
  EXPECT_EQ(LocalStore::CollectionXPath("245"), "/data[@id='245']");
  // Ids with XPath metacharacters survive quoting.
  EXPECT_EQ(LocalStore::CollectionXPath("a]b c"), "/data[@id='a]b c']");
  EXPECT_EQ(LocalStore::CollectionXPath("it's"), "/data[@id=\"it's\"]");
}

TEST(LocalStoreTest, HostileCollectionIdsRoundTrip) {
  // The satellite fix: ids containing ']', quotes, spaces or separators
  // used to be spliced into the xpath unescaped and broke the parse.
  for (const std::string id :
       {"a]b", "it's", "with space", "replica:10.0.0.5:9020", "0245"}) {
    LocalStore store;
    store.AddCollection(id, Cds());
    auto r = store.Fetch("", LocalStore::CollectionXPath(id));
    ASSERT_TRUE(r.ok()) << id << ": " << r.status();
    EXPECT_EQ(r->size(), 4u) << id;
  }
}

TEST(LocalStoreTest, LegacyUnquotedCollectionXPathStillResolves) {
  LocalStore store;
  store.AddCollection("c0", Cds());
  for (const char* form : {"/data[id=c0]", "/data[@id=c0]", "data[id=c0]",
                           "/data[@id='c0']", "/data[id='c0']"}) {
    auto r = store.Fetch("", form);
    ASSERT_TRUE(r.ok()) << form;
    EXPECT_EQ(r->size(), 4u) << form;
  }
}

TEST(LocalStoreTest, NumericIdEqualityMatchesXPathSemantics) {
  // XPath '=' compares numerically when both sides parse as numbers; the
  // keyed fast path must agree ("0245" matches id "245").
  LocalStore store;
  store.AddCollection("245", Cds());
  auto r = store.Fetch("", "/data[id=0245]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
}

TEST(LocalStoreTest, IdElementItemShadowsAttributeForm) {
  // Legacy "[id=...]" compares the first <id> *child element* when one
  // exists; a collection can be selected by its item text even though
  // its id attribute differs. The keyed fast path must stand aside.
  LocalStore store;
  store.AddCollection("c1", {ItemFrom("<id>5</id>"), ItemFrom("<x/>")});
  auto r = store.Fetch("", "/data[id=5]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // the whole collection, as the document says
  // The attribute-only form is not shadowed.
  r = store.Fetch("", "/data[@id=5]");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(LocalStoreTest, TrailingAttributeStepMatchesDocumentSemantics) {
  // "/data[@id='c0']/@id" applies the @id test to the <data> element
  // (which carries it) and then expands the collection — not to the
  // items. The fast path must defer to the view here.
  LocalStore store;
  store.AddCollection("c0", {ItemFrom("<cd><t>x</t></cd>")});
  auto r = store.Fetch("", "/data[@id='c0']/@id");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
}

TEST(LocalStoreTest, NonElementItemsAreHiddenButStayInTheDocument) {
  // The document model never emitted text-node items (readers walk
  // element children), yet they are part of the <data> element: a
  // "[.=text]" self predicate must still see them.
  LocalStore store;
  store.AddCollection("c", {Item(xml::Node::Text("loose").release()),
                            ItemFrom("<a/>")});
  EXPECT_EQ(FetchCount(&store, ""), 1u);
  auto r = store.Fetch("", LocalStore::CollectionXPath("c"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  r = store.Fetch("", "/data[.='loose']");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);  // matched via the text item; emits <a/>
}

TEST(XPathCompatTest, BareLiteralWithApostropheKeepsLegacyMeaning) {
  // The quote-aware predicate scanner must not treat a quote *inside* a
  // bare literal as a string opener.
  LocalStore store;
  store.AddCollection("it's", Cds());
  auto r = store.Fetch("", "/data[id=it's]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
}

TEST(LocalStoreTest, SharedFetchPerformsZeroClones) {
  LocalStore store;
  store.AddCollection("245", Cds());
  const uint64_t cloned_before = Stats().items_cloned;
  const uint64_t nodes_before = xml::DomNodesBuilt();
  auto r = store.Fetch("", "/data[@id='245']");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
  EXPECT_EQ(Stats().items_cloned, cloned_before);
  EXPECT_EQ(xml::DomNodesBuilt(), nodes_before);
}

}  // namespace
}  // namespace mqp::engine

namespace mqp::engine {
namespace {

using algebra::Item;
using algebra::ItemSet;
using algebra::PlanNode;

Item OuterItemFrom(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return Item(std::move(doc).value().release());
}

TEST(LeftOuterJoinTest, UnmatchedLeftItemsPassThrough) {
  ItemSet left = {
      OuterItemFrom("<a><k>1</k><av>x</av></a>"),
      OuterItemFrom("<a><k>2</k><av>y</av></a>"),
      OuterItemFrom("<a><k>3</k><av>z</av></a>"),
  };
  ItemSet right = {OuterItemFrom("<b><bk>2</bk><bv>m</bv></b>")};
  auto plan = PlanNode::LeftOuterJoin(algebra::JoinEq("k", "bk"),
                                      PlanNode::XmlData(left),
                                      PlanNode::XmlData(right));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->size(), 3u);  // all left rows survive
  // Row with k=2 merged b-fields; the others did not.
  int merged = 0;
  for (const auto& item : *r) {
    if (item->Child("bv") != nullptr) {
      ++merged;
      EXPECT_EQ(item->ChildText("k"), "2");
    }
  }
  EXPECT_EQ(merged, 1);
}

TEST(LeftOuterJoinTest, MatchFanoutDuplicatesLeftRow) {
  ItemSet left = {OuterItemFrom("<a><k>1</k></a>")};
  ItemSet right = {OuterItemFrom("<b><bk>1</bk><bv>p</bv></b>"),
                   OuterItemFrom("<b><bk>1</bk><bv>q</bv></b>")};
  auto plan = PlanNode::LeftOuterJoin(algebra::JoinEq("k", "bk"),
                                      PlanNode::XmlData(left),
                                      PlanNode::XmlData(right));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(LeftOuterJoinTest, EmptyRightKeepsAllLeft) {
  ItemSet left = {OuterItemFrom("<a><k>1</k></a>"),
                  OuterItemFrom("<a><k>2</k></a>")};
  auto plan = PlanNode::LeftOuterJoin(algebra::JoinEq("k", "bk"),
                                      PlanNode::XmlData(left),
                                      PlanNode::XmlData({}));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_TRUE((*r)[0]->Equals(*left[0]));
}

TEST(LeftOuterJoinTest, ThetaConditionOuterJoin) {
  ItemSet left = {OuterItemFrom("<a><v>5</v></a>"),
                  OuterItemFrom("<a><v>50</v></a>")};
  ItemSet right = {OuterItemFrom("<b><cap>10</cap></b>")};
  auto cond = algebra::Expr::Compare(
      algebra::CompareOp::kLt,
      algebra::Expr::Field("v", algebra::Side::kLeft),
      algebra::Expr::Field("cap", algebra::Side::kRight));
  auto plan = PlanNode::LeftOuterJoin(cond, PlanNode::XmlData(left),
                                      PlanNode::XmlData(right));
  auto r = Evaluate(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_NE((*r)[0]->Child("cap"), nullptr);  // 5 < 10 merged
  EXPECT_EQ((*r)[1]->Child("cap"), nullptr);  // 50 passes through bare
}

TEST(LeftOuterJoinTest, WireFormatRoundTrip) {
  ItemSet left = {OuterItemFrom("<a><k>1</k></a>")};
  algebra::Plan plan(PlanNode::LeftOuterJoin(
      algebra::JoinEq("k", "bk"), PlanNode::XmlData(left),
      PlanNode::UrnRef("urn:b:data")));
  auto back = algebra::ParsePlan(algebra::SerializePlan(plan));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(plan.root()->Equals(*back->root()));
  EXPECT_EQ(back->root()->type(), algebra::OpType::kLeftOuterJoin);
}

}  // namespace
}  // namespace mqp::engine
