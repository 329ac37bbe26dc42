#include <gtest/gtest.h>

#include <optional>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "algebra/plan_xml.h"
#include "algebra/walk.h"
#include "common/rng.h"
#include "support/dom_parser.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"

namespace mqp::algebra {
namespace {

// Distinct nodes in the DAG under `root`, or only those of `type`. A walk:
// called inside another walk's callback, it nests.
size_t CountNodes(const PlanNode* root,
                  std::optional<OpType> type = std::nullopt) {
  size_t n = 0;
  ForEachNode(root, [&](const PlanNode* node) {
    if (!type || node->type() == *type) ++n;
  });
  return n;
}

Item ItemFrom(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return Item(std::move(doc).value().release());
}

TEST(ValueTest, NumericWhenBothNumeric) {
  EXPECT_LT(Value{"9"}.Compare(Value{"10"}), 0);
  EXPECT_GT(Value{"9a"}.Compare(Value{"10"}), 0);  // lexicographic fallback
  EXPECT_EQ(Value{"10.0"}.Compare(Value{"10"}), 0);
}

TEST(ExprTest, ComparePriceLessThanTen) {
  auto pred = FieldLess("price", "10");
  auto cheap = ItemFrom("<item><price>8</price></item>");
  auto pricey = ItemFrom("<item><price>12</price></item>");
  EXPECT_TRUE(pred->EvalBool(*cheap));
  EXPECT_FALSE(pred->EvalBool(*pricey));
}

TEST(ExprTest, MissingFieldFailsPredicate) {
  auto pred = FieldLess("price", "10");
  auto missing = ItemFrom("<item><name>x</name></item>");
  EXPECT_FALSE(pred->EvalBool(*missing));
}

TEST(ExprTest, AndOrNot) {
  auto item = ItemFrom("<i><a>1</a><b>2</b></i>");
  auto a1 = FieldEquals("a", "1");
  auto b3 = FieldEquals("b", "3");
  EXPECT_FALSE(Expr::And(a1, b3)->EvalBool(*item));
  EXPECT_TRUE(Expr::Or(a1, b3)->EvalBool(*item));
  EXPECT_TRUE(Expr::Not(b3)->EvalBool(*item));
}

TEST(ExprTest, ExistsChecksPresence) {
  auto item = ItemFrom("<i><a>1</a></i>");
  EXPECT_TRUE(Expr::Exists("a")->EvalBool(*item));
  EXPECT_FALSE(Expr::Exists("z")->EvalBool(*item));
}

TEST(ExprTest, JoinConditionReadsBothSides) {
  auto cond = JoinEq("title", "CDtitle");
  auto l = ItemFrom("<cd><title>Kind of Blue</title></cd>");
  auto r1 = ItemFrom("<listing><CDtitle>Kind of Blue</CDtitle></listing>");
  auto r2 = ItemFrom("<listing><CDtitle>Blue Train</CDtitle></listing>");
  EXPECT_TRUE(cond->EvalBool(*l, r1.get()));
  EXPECT_FALSE(cond->EvalBool(*l, r2.get()));
  EXPECT_FALSE(cond->EvalBool(*l, nullptr));
}

TEST(ExprTest, NestedFieldPath) {
  auto item = ItemFrom("<i><seller><city>Portland</city></seller></i>");
  auto pred = FieldEquals("seller/city", "Portland");
  EXPECT_TRUE(pred->EvalBool(*item));
}

TEST(ExprTest, XmlRoundTrip) {
  auto exprs = {
      FieldLess("price", "10"),
      Expr::And(FieldEquals("a", "x"), Expr::Not(Expr::Exists("b"))),
      Expr::Or(JoinEq("l", "r"), FieldGreater("n", "5")),
      Expr::Compare(CompareOp::kNe, Expr::Field("f", Side::kRight),
                    Expr::Literal("v")),
  };
  for (const auto& e : exprs) {
    std::string text;
    xml::TokenWriter w(&text);
    e->EmitTokens(&w);
    xml::TokenReader r(text);
    ASSERT_TRUE(r.Advance()) << r.status();
    auto back = Expr::FromTokens(&r);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(e->Equals(**back)) << e->ToString();
  }
}

TEST(ExprTest, ToStringReadable) {
  EXPECT_EQ(FieldLess("price", "10")->ToString(), "price < '10'");
  EXPECT_EQ(JoinEq("a", "b")->ToString(), "a = right.b");
}

PlanNodePtr Figure3Plan() {
  // select(price<10)(urn:ForSale:Portland-CDs) JOIN urn:CD:TrackListings
  // JOIN favorite songs, under a display target (paper Figure 3).
  ItemSet songs;
  songs.push_back(ItemFrom("<song><name>So What</name></song>"));
  songs.push_back(ItemFrom("<song><name>Blue in Green</name></song>"));
  auto sel = PlanNode::Select(FieldLess("price", "10"),
                              PlanNode::UrnRef("urn:ForSale:Portland-CDs"));
  auto join1 = PlanNode::Join(JoinEq("title", "CDtitle"), sel,
                              PlanNode::UrnRef("urn:CD:TrackListings"));
  auto join2 = PlanNode::Join(JoinEq("song", "name"), join1,
                              PlanNode::XmlData(std::move(songs)));
  return PlanNode::Display("129.95.50.105:9020", join2);
}

TEST(PlanTest, Figure3Construction) {
  auto root = Figure3Plan();
  EXPECT_EQ(root->type(), OpType::kDisplay);
  EXPECT_EQ(root->target(), "129.95.50.105:9020");
  EXPECT_EQ(CountNodes(root.get()), 7u);
  EXPECT_EQ(root->UrnLeaves().size(), 2u);
  EXPECT_EQ(CountNodes(root.get(), OpType::kUrl), 0u);
}

TEST(PlanTest, CloneIsDeepAndPreservesSharing) {
  auto shared = PlanNode::UrnRef("urn:X:Y");
  auto u = PlanNode::Union({shared, PlanNode::Select(
                                        FieldLess("p", "1"), shared)});
  EXPECT_EQ(CountNodes(u.get()), 3u);  // union, select, shared urn
  auto clone = u->Clone();
  EXPECT_EQ(CountNodes(clone.get()), 3u);
  EXPECT_TRUE(u->Equals(*clone));
  // Mutating the clone must not affect the original.
  clone->mutable_children()[0] = PlanNode::XmlData({});
  EXPECT_EQ(u->child(0)->type(), OpType::kUrn);
}

// The walk primitive (algebra/walk.h): a walk started inside another
// walk's callback keeps its own marks, so the outer walk still visits
// each distinct node once and in order; tables grow past their first
// size, and the serializers' shared-node ids ride on the same tables.
TEST(PlanWalkTest, NestedWalksKeepTheirOwnMarks) {
  auto shared = PlanNode::Union({PlanNode::Url("a:1"), PlanNode::Url("b:1")});
  auto root = PlanNode::Union(
      {shared, PlanNode::Select(FieldLess("p", "1"), shared)});
  const PlanNode* const_root = root.get();
  std::vector<std::string> post, pre;
  ForEachNodePostOrder(root.get(), [&](PlanNode* n) {
    post.push_back(n->Summary());
    size_t inner = 0;
    ForEachNode(const_root, [&](const PlanNode*) {
      ++inner;
      EXPECT_EQ(CountNodes(const_root), 5u);  // a third level
    });
    EXPECT_EQ(inner, 5u);
  });
  EXPECT_EQ(post, (std::vector<std::string>{"url(a:1)", "url(b:1)", "union",
                                            "select(p < '1')", "union"}));
  ForEachNode(const_root, [&](const PlanNode* n) {
    pre.push_back(n->Summary());
    EXPECT_EQ(CountNodes(const_root, OpType::kUrl), 2u);
  });
  EXPECT_EQ(pre, (std::vector<std::string>{"union", "union", "url(a:1)",
                                           "url(b:1)", "select(p < '1')"}));

  std::vector<PlanNodePtr> leaves;
  for (int i = 0; i < 200; ++i) {
    leaves.push_back(PlanNode::Url("h" + std::to_string(i) + ":1"));
  }
  std::vector<PlanNodePtr> twice = leaves;
  twice.insert(twice.end(), leaves.begin(), leaves.end());
  Plan wide(PlanNode::Union(twice));
  EXPECT_EQ(CountNodes(wide.root().get()), 201u);
  EXPECT_EQ(CountNodes(wide.root().get(), OpType::kUrl), 200u);
  auto back = ParsePlan(SerializePlan(wide));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(CountNodes(back->root().get()), 201u);
  EXPECT_EQ(SerializePlan(*back), SerializePlan(wide));
}

TEST(PlanTest, FullyEvaluatedDetection) {
  Plan p(Figure3Plan());
  EXPECT_FALSE(p.IsFullyEvaluated());
  EXPECT_FALSE(p.ResultItems().ok());

  ItemSet data;
  data.push_back(ItemFrom("<r><t>done</t></r>"));
  Plan done(PlanNode::Display("c:1", PlanNode::XmlData(std::move(data))));
  EXPECT_TRUE(done.IsFullyEvaluated());
  auto items = done.ResultItems();
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items->size(), 1u);
  // Also without a display wrapper.
  Plan bare(PlanNode::XmlData({}));
  EXPECT_TRUE(bare.IsFullyEvaluated());
}

TEST(PlanTest, TargetFromDisplay) {
  Plan p(Figure3Plan());
  EXPECT_EQ(p.target(), "129.95.50.105:9020");
  Plan q(PlanNode::UrnRef("urn:a:b"));
  EXPECT_EQ(q.target(), "");
}

TEST(PlanXmlTest, Figure3RoundTrip) {
  Plan p(Figure3Plan());
  p.provenance().Add({"peer-1", 1.5, ProvenanceAction::kBound,
                      "urn:ForSale:Portland-CDs", 0});
  const std::string wire = SerializePlan(p);
  auto back = ParsePlan(wire);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << wire;
  EXPECT_TRUE(p.root()->Equals(*back->root())) << wire;
  ASSERT_EQ(back->provenance().size(), 1u);
  EXPECT_EQ(back->provenance().entries()[0].server, "peer-1");
  EXPECT_EQ(back->provenance().entries()[0].action,
            ProvenanceAction::kBound);
}

TEST(PlanXmlTest, WireSizeMatchesSerializedLength) {
  Plan p(Figure3Plan());
  EXPECT_EQ(PlanWireSize(p), SerializePlan(p).size());
}

TEST(PlanXmlTest, AnnotationsSurvive) {
  auto urn = PlanNode::UrnRef("urn:a:b");
  urn->annotations().cardinality = 1000000;
  urn->annotations().distinct_keys = 512;
  urn->annotations().staleness_minutes = 30;
  Plan p(PlanNode::Select(FieldLess("x", "1"), urn));
  auto back = ParsePlan(SerializePlan(p));
  ASSERT_TRUE(back.ok()) << back.status();
  const auto& a = back->root()->child(0)->annotations();
  EXPECT_EQ(a.cardinality, 1000000u);
  EXPECT_EQ(a.distinct_keys, 512u);
  EXPECT_EQ(a.staleness_minutes, 30);
}

TEST(PlanXmlTest, SharedNodeSerializedOnceAndRestored) {
  auto shared = PlanNode::Url("10.0.0.1:9020", "/data[@id=1]");
  auto plan_root = PlanNode::Union(
      {PlanNode::Select(FieldLess("p", "5"), shared),
       PlanNode::Select(FieldGreater("p", "100"), shared)});
  Plan p(plan_root);
  const std::string wire = SerializePlan(p);
  // The URL text must appear exactly once in the wire form.
  size_t first = wire.find("10.0.0.1:9020");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(wire.find("10.0.0.1:9020", first + 1), std::string::npos);
  EXPECT_NE(wire.find("<ref"), std::string::npos);

  auto back = ParsePlan(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(CountNodes(back->root().get()), 4u);  // sharing restored
  EXPECT_EQ(back->root()->child(0)->child(0).get(),
            back->root()->child(1)->child(0).get());
}

TEST(PlanXmlTest, OriginalPlanCarried) {
  Plan p(Figure3Plan());
  p.SnapshotOriginal();
  // Mutate: replace the whole plan with constant data.
  ItemSet data;
  data.push_back(ItemFrom("<done/>"));
  p.set_root(PlanNode::Display(p.target(), PlanNode::XmlData(data)));
  auto back = ParsePlan(SerializePlan(p));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_NE(back->original(), nullptr);
  EXPECT_EQ(CountNodes(back->original().get()), 7u);
  EXPECT_TRUE(back->IsFullyEvaluated());
}

TEST(PlanXmlTest, DataItemsRoundTrip) {
  ItemSet items;
  items.push_back(ItemFrom("<item><name>a&amp;b</name><price>5</price></item>"));
  items.push_back(ItemFrom("<item kind=\"cd\"><price>9.99</price></item>"));
  Plan p(PlanNode::XmlData(items));
  auto back = ParsePlan(SerializePlan(p));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->root()->items().size(), 2u);
  EXPECT_TRUE(back->root()->items()[0]->Equals(*items[0]));
  EXPECT_TRUE(back->root()->items()[1]->Equals(*items[1]));
}

TEST(PlanXmlTest, AllOperatorsRoundTrip) {
  ItemSet data;
  data.push_back(ItemFrom("<i><v>1</v></i>"));
  auto d = PlanNode::XmlData(data);
  auto plan_root = PlanNode::TopN(
      5, "v", false,
      PlanNode::Aggregate(
          AggFunc::kAvg, "v", "g",
          PlanNode::Difference(
              PlanNode::Project(
                  {"v", "g"},
                  PlanNode::Or({PlanNode::Union({d, PlanNode::UrnRef(
                                                        "urn:a:b")}),
                                PlanNode::Url("h:1", "/data[@id=2]")})),
              PlanNode::XmlData({}))));
  Plan p(plan_root);
  auto back = ParsePlan(SerializePlan(p));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(p.root()->Equals(*back->root()))
      << p.root()->ToDebugString() << "vs\n"
      << back->root()->ToDebugString();
}

TEST(PlanXmlTest, ParseErrors) {
  EXPECT_FALSE(ParsePlan("<mqp></mqp>").ok());          // no <plan>
  EXPECT_FALSE(ParsePlan("<mqp><plan/></mqp>").ok());   // empty plan
  EXPECT_FALSE(ParsePlan("<notmqp/>").ok());
  EXPECT_FALSE(
      ParsePlan("<mqp><plan><select><field path=\"x\"/></select></plan></mqp>")
          .ok());  // select missing input
  EXPECT_FALSE(
      ParsePlan("<mqp><plan><bogus/></plan></mqp>").ok());
  EXPECT_FALSE(
      ParsePlan("<mqp><plan><ref id=\"9\"/></plan></mqp>").ok());  // dangling
}

// Property: random plans round-trip through XML.
class PlanRoundTrip : public ::testing::TestWithParam<uint64_t> {};

PlanNodePtr RandomPlanNode(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBool(0.25)) {
    switch (rng->NextBelow(3)) {
      case 0: {
        ItemSet items;
        const uint64_t n = rng->NextBelow(3);
        for (uint64_t i = 0; i < n; ++i) {
          auto e = xml::Node::Element("item");
          e->AddElementWithText("f", rng->NextWord(3));
          items.push_back(Item(e.release()));
        }
        return PlanNode::XmlData(std::move(items));
      }
      case 1:
        return PlanNode::Url(rng->NextWord(6) + ":9020",
                             "/data[@id=" + std::to_string(rng->NextBelow(99)) +
                                 "]");
      default:
        return PlanNode::UrnRef("urn:T:" + rng->NextWord(8));
    }
  }
  switch (rng->NextBelow(8)) {
    case 0:
      return PlanNode::Select(FieldLess(rng->NextWord(3),
                                        std::to_string(rng->NextBelow(100))),
                              RandomPlanNode(rng, depth - 1));
    case 1:
      return PlanNode::Project({rng->NextWord(3), rng->NextWord(4)},
                               RandomPlanNode(rng, depth - 1));
    case 2:
      return PlanNode::Join(JoinEq(rng->NextWord(3), rng->NextWord(3)),
                            RandomPlanNode(rng, depth - 1),
                            RandomPlanNode(rng, depth - 1));
    case 3: {
      std::vector<PlanNodePtr> inputs;
      const uint64_t n = 1 + rng->NextBelow(3);
      for (uint64_t i = 0; i < n; ++i) {
        inputs.push_back(RandomPlanNode(rng, depth - 1));
      }
      return PlanNode::Union(std::move(inputs));
    }
    case 4: {
      std::vector<PlanNodePtr> alts;
      const uint64_t n = 1 + rng->NextBelow(2);
      for (uint64_t i = 0; i < n; ++i) {
        alts.push_back(RandomPlanNode(rng, depth - 1));
      }
      return PlanNode::Or(std::move(alts));
    }
    case 5:
      return PlanNode::Difference(RandomPlanNode(rng, depth - 1),
                                  RandomPlanNode(rng, depth - 1));
    case 6:
      return PlanNode::Aggregate(
          static_cast<AggFunc>(rng->NextBelow(5)), rng->NextWord(3),
          rng->NextBool() ? rng->NextWord(3) : "",
          RandomPlanNode(rng, depth - 1));
    default:
      return PlanNode::TopN(rng->NextBelow(20), rng->NextWord(3),
                            rng->NextBool(), RandomPlanNode(rng, depth - 1));
  }
}

TEST_P(PlanRoundTrip, SerializeParseIdentity) {
  Rng rng(GetParam());
  Plan p(PlanNode::Display("client:" + std::to_string(GetParam()),
                           RandomPlanNode(&rng, 4)));
  const std::string wire = SerializePlan(p);
  auto back = ParsePlan(wire);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << wire;
  EXPECT_TRUE(p.root()->Equals(*back->root())) << wire;
  EXPECT_EQ(back->target(), p.target());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanRoundTrip,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace mqp::algebra
