#include <gtest/gtest.h>

#include "algebra/plan.h"
#include "algebra/walk.h"
#include "engine/operator.h"
#include "optimizer/cost.h"
#include "optimizer/evaluable.h"
#include "optimizer/policy.h"
#include "optimizer/rewrites.h"
#include "support/dom_parser.h"

namespace mqp::optimizer {
namespace {

using algebra::FieldLess;
using algebra::Item;
using algebra::ItemSet;
using algebra::JoinEq;
using algebra::OpType;
using algebra::PlanNode;
using algebra::PlanNodePtr;

Item ItemFrom(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return Item(std::move(doc).value().release());
}

ItemSet SmallData(int n) {
  ItemSet out;
  for (int i = 0; i < n; ++i) {
    out.push_back(ItemFrom("<i><k>" + std::to_string(i) + "</k><price>" +
                           std::to_string(i * 3) + "</price></i>"));
  }
  return out;
}

Locality LocalTo(const std::string& self) {
  Locality loc;
  loc.is_local_url = [self](const PlanNode& n) { return n.url() == self; };
  return loc;
}

TEST(CostTest, ConstantDataIsExact) {
  CostModel cost;
  auto node = PlanNode::XmlData(SmallData(7));
  auto est = cost.Estimate(*node);
  EXPECT_DOUBLE_EQ(est.rows, 7);
  EXPECT_GT(est.bytes, 0);
}

TEST(CostTest, AnnotationsOverrideDefaults) {
  CostModel cost;
  auto urn = PlanNode::UrnRef("urn:a:b");
  EXPECT_DOUBLE_EQ(cost.Estimate(*urn).rows, cost.params().default_leaf_rows);
  urn->annotations().cardinality = 5000;
  EXPECT_DOUBLE_EQ(cost.Estimate(*urn).rows, 5000);
}

TEST(CostTest, SelectivityByPredicateShape) {
  CostModel cost;
  auto data = PlanNode::XmlData(SmallData(100));
  auto eq = PlanNode::Select(algebra::FieldEquals("k", "5"), data);
  auto lt = PlanNode::Select(FieldLess("k", "5"), data);
  EXPECT_LT(cost.Estimate(*eq).rows, cost.Estimate(*lt).rows);
  // AND multiplies, OR adds.
  auto both = PlanNode::Select(
      algebra::Expr::And(algebra::FieldEquals("k", "5"),
                         algebra::FieldEquals("price", "15")),
      data);
  EXPECT_LT(cost.Estimate(*both).rows, cost.Estimate(*eq).rows);
}

TEST(CostTest, JoinUsesDistinctKeysAnnotation) {
  CostModel cost;
  auto l = PlanNode::UrnRef("urn:l:l");
  auto r = PlanNode::UrnRef("urn:r:r");
  l->annotations().cardinality = 1000;
  r->annotations().cardinality = 1000;
  auto join = PlanNode::Join(JoinEq("a", "b"), l, r);
  const double plain = cost.Estimate(*join).rows;
  l->annotations().distinct_keys = 1000;
  const double informed = cost.Estimate(*join).rows;
  EXPECT_LT(informed, plain);
  EXPECT_DOUBLE_EQ(informed, 1000.0);  // 1000*1000/1000
}

TEST(CostTest, TopNCapsCardinality) {
  CostModel cost;
  auto node = PlanNode::TopN(5, "k", true, PlanNode::XmlData(SmallData(50)));
  EXPECT_DOUBLE_EQ(cost.Estimate(*node).rows, 5);
}

TEST(CostTest, OrTakesCheapestAlternative) {
  CostModel cost;
  auto big = PlanNode::UrnRef("urn:big:x");
  big->annotations().cardinality = 10000;
  auto small = PlanNode::UrnRef("urn:small:x");
  small->annotations().cardinality = 10;
  auto node = PlanNode::Or({big, small});
  EXPECT_DOUBLE_EQ(cost.Estimate(*node).rows, 10);
}

TEST(EvaluableTest, ConstantDataIsEvaluable) {
  auto node = PlanNode::Select(FieldLess("price", "10"),
                               PlanNode::XmlData(SmallData(3)));
  EXPECT_TRUE(IsLocallyEvaluable(*node, Locality{}));
}

TEST(EvaluableTest, RemoteUrlBlocksEvaluation) {
  auto node = PlanNode::Select(FieldLess("price", "10"),
                               PlanNode::Url("other:9020", ""));
  EXPECT_FALSE(IsLocallyEvaluable(*node, LocalTo("self:9020")));
  EXPECT_TRUE(IsLocallyEvaluable(*node, LocalTo("other:9020")));
}

TEST(EvaluableTest, OrNeedsOnlyOneAlternative) {
  auto node = PlanNode::Or({PlanNode::UrnRef("urn:a:b"),
                            PlanNode::XmlData(SmallData(1))});
  EXPECT_TRUE(IsLocallyEvaluable(*node, Locality{}));
  auto none = PlanNode::Or({PlanNode::UrnRef("urn:a:b")});
  EXPECT_FALSE(IsLocallyEvaluable(*none, Locality{}));
}

TEST(EvaluableTest, MaximalSubplansAreMaximal) {
  // join(select(data), url-remote): the select is maximal-evaluable, the
  // join is not.
  auto sel = PlanNode::Select(FieldLess("price", "10"),
                              PlanNode::XmlData(SmallData(5)));
  auto join =
      PlanNode::Join(JoinEq("k", "k"), sel, PlanNode::Url("other:9020", ""));
  auto subs = MaximalEvaluableSubplans(join.get(), LocalTo("self:9020"));
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0], sel.get());
}

TEST(EvaluableTest, BareConstantsSkipped) {
  auto data = PlanNode::XmlData(SmallData(5));
  auto subs = MaximalEvaluableSubplans(data.get(), Locality{});
  EXPECT_TRUE(subs.empty());  // nothing to do
}

TEST(EvaluableTest, DisplayNeverReturned) {
  auto plan = PlanNode::Display(
      "c:1", PlanNode::Select(FieldLess("price", "10"),
                              PlanNode::XmlData(SmallData(5))));
  auto subs = MaximalEvaluableSubplans(plan.get(), Locality{});
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0]->type(), OpType::kSelect);
}

TEST(RewriteTest, PushSelectThroughUnion) {
  // Figure 4(a): select over the union produced by URN resolution.
  auto u = PlanNode::Union({PlanNode::Url("a:9020", ""),
                            PlanNode::Url("b:9020", "")});
  auto sel = PlanNode::Select(FieldLess("price", "10"), u);
  EXPECT_EQ(PushSelectThroughUnion(sel.get()), 1);
  EXPECT_EQ(sel->type(), OpType::kUnion);
  ASSERT_EQ(sel->children().size(), 2u);
  for (const auto& c : sel->children()) {
    EXPECT_EQ(c->type(), OpType::kSelect);
    EXPECT_EQ(c->child(0)->type(), OpType::kUrl);
  }
}

TEST(RewriteTest, PushSelectThroughNestedUnions) {
  auto inner = PlanNode::Union({PlanNode::Url("a:1", ""),
                                PlanNode::Url("b:1", "")});
  auto outer = PlanNode::Union({inner, PlanNode::Url("c:1", "")});
  auto sel = PlanNode::Select(FieldLess("p", "1"), outer);
  EXPECT_EQ(PushSelectThroughUnion(sel.get()), 2);
  // All leaves now sit directly under selects.
  EXPECT_EQ(sel->type(), OpType::kUnion);
}

TEST(RewriteTest, PushSelectPreservesResults) {
  ItemSet a = SmallData(10), b = SmallData(10);
  auto plain = PlanNode::Select(
      FieldLess("price", "12"),
      PlanNode::Union({PlanNode::XmlData(a), PlanNode::XmlData(b)}));
  auto pushed = plain->Clone();
  PushSelectThroughUnion(pushed.get());
  auto r1 = engine::Evaluate(*plain);
  auto r2 = engine::Evaluate(*pushed);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_TRUE((*r1)[i]->Equals(*(*r2)[i]));
  }
}

TEST(RewriteTest, OrEliminationPrefersLocal) {
  CostModel cost;
  auto remote = PlanNode::Url("other:9020", "");
  auto local = PlanNode::Url("self:9020", "");
  auto node = PlanNode::Or({remote, local});
  auto wrapper = PlanNode::Select(FieldLess("p", "1"), node);
  EXPECT_EQ(EliminateOrNodes(wrapper.get(), LocalTo("self:9020"), cost,
                             OrPreference::kPreferLocal),
            1);
  EXPECT_EQ(wrapper->child(0)->type(), OpType::kUrl);
  EXPECT_EQ(wrapper->child(0)->url(), "self:9020");
}

TEST(RewriteTest, OrEliminationPrefersCurrent) {
  CostModel cost;
  auto stale = PlanNode::Url("r:9020", "");
  stale->annotations().staleness_minutes = 30;
  auto fresh = PlanNode::Union({PlanNode::Url("r:9020", ""),
                                PlanNode::Url("s:9020", "")});
  auto node = PlanNode::Or({stale, fresh});
  auto wrapper = PlanNode::Select(FieldLess("p", "1"), node);
  EliminateOrNodes(wrapper.get(), Locality{}, cost,
                   OrPreference::kPreferCurrent);
  EXPECT_EQ(wrapper->child(0)->type(), OpType::kUnion);
}

TEST(RewriteTest, OrEliminationCheapestPicksFewestBytes) {
  CostModel cost;
  auto stale = PlanNode::Url("r:9020", "");
  stale->annotations().staleness_minutes = 30;
  stale->annotations().cardinality = 100;
  auto fresh = PlanNode::Union({PlanNode::Url("r:9020", ""),
                                PlanNode::Url("s:9020", "")});
  auto node = PlanNode::Or({stale, fresh});
  auto wrapper = PlanNode::Select(FieldLess("p", "1"), node);
  EliminateOrNodes(wrapper.get(), Locality{}, cost, OrPreference::kCheapest);
  EXPECT_EQ(wrapper->child(0)->type(), OpType::kUrl);
  EXPECT_EQ(wrapper->child(0)->annotations().staleness_minutes, 30);
}

// Walks nest: EliminateOrNodes' post-order walk asks ChooseOrBranch,
// whose kPreferComplete rule walks each alternative to count its sources,
// and here the alternative it picks is shared with a later branch and
// holds a second Or. Each Or is eliminated once, and the shared
// alternative stays shared under the select.
TEST(RewriteTest, OrEliminationNestsWalksOverASharedAlternative) {
  CostModel cost;
  auto inner_or = PlanNode::Or(
      {PlanNode::Url("c:1", ""),
       PlanNode::Union({PlanNode::Url("d:1", ""), PlanNode::Url("e:1", "")})});
  auto shared = PlanNode::Union(
      {PlanNode::Url("b:1", ""), PlanNode::UrnRef("urn:x"), inner_or});
  auto outer_or = PlanNode::Or({PlanNode::Url("a:1", ""), shared});
  auto select = PlanNode::Select(FieldLess("p", "1"), shared);
  auto root = PlanNode::Union({outer_or, select});
  EXPECT_EQ(EliminateOrNodes(root.get(), Locality{}, cost,
                             OrPreference::kPreferComplete),
            2);
  EXPECT_EQ(root->ToDebugString(),
            "union\n"
            "  union\n"
            "    url(b:1)\n"
            "    urn(urn:x)\n"
            "    union\n"
            "      url(d:1)\n"
            "      url(e:1)\n"
            "  select(p < '1')\n"
            "    union\n"
            "      url(b:1)\n"
            "      urn(urn:x)\n"
            "      union\n"
            "        url(d:1)\n"
            "        url(e:1)\n");
  EXPECT_EQ(select->child(0), shared);
  size_t distinct_nodes = 0;
  algebra::ForEachNode(root.get(),
                       [&](const PlanNode*) { ++distinct_nodes; });
  EXPECT_EQ(distinct_nodes, 14u);
}

TEST(RewriteTest, MaxStalenessRecurses) {
  auto a = PlanNode::Url("a:1", "");
  a->annotations().staleness_minutes = 10;
  auto b = PlanNode::Url("b:1", "");
  b->annotations().staleness_minutes = 45;
  auto u = PlanNode::Union({a, b});
  EXPECT_EQ(MaxStalenessMinutes(*u), 45);
}

TEST(RewriteTest, NodeProvidesFieldProbesData) {
  auto data = PlanNode::XmlData(SmallData(3));
  EXPECT_TRUE(NodeProvidesField(*data, "price"));
  EXPECT_FALSE(NodeProvidesField(*data, "missing"));
  EXPECT_FALSE(NodeProvidesField(*PlanNode::UrnRef("urn:a:b"), "price"));
  auto proj = PlanNode::Project({"k"}, data);
  EXPECT_TRUE(NodeProvidesField(*proj, "k"));
  EXPECT_FALSE(NodeProvidesField(*proj, "price"));
}

// Builds the paper's absorption scenario: (A ⋈ X) ⋈ B with A, B local
// data and X remote.
struct AbsorptionFixture {
  ItemSet a_items, b_items;
  PlanNodePtr a, b, x, plan;

  explicit AbsorptionFixture(int b_matches) {
    // A: 10 records keyed k=0..9; B: `b_matches` records matching A's keys;
    // X remote.
    for (int i = 0; i < 10; ++i) {
      a_items.push_back(ItemFrom("<i><k>" + std::to_string(i) +
                                 "</k><ax>1</ax></i>"));
    }
    for (int i = 0; i < b_matches; ++i) {
      b_items.push_back(ItemFrom("<i><bk>" + std::to_string(i) +
                                 "</bk><bx>1</bx></i>"));
    }
    a = PlanNode::XmlData(a_items);
    b = PlanNode::XmlData(b_items);
    x = PlanNode::UrnRef("urn:remote:x");
    auto inner = PlanNode::Join(JoinEq("k", "xk"), a, x);
    plan = PlanNode::Join(JoinEq("k", "bk"), inner, b);
  }
};

TEST(RewriteTest, ConsolidationReordersLocalPair) {
  AbsorptionFixture f(5);
  EXPECT_EQ(ConsolidateJoins(f.plan.get(), Locality{}), 1);
  // Now: join(join(A,B), X).
  ASSERT_EQ(f.plan->type(), OpType::kJoin);
  EXPECT_EQ(f.plan->child(1)->type(), OpType::kUrn);
  EXPECT_EQ(f.plan->child(0)->type(), OpType::kJoin);
  EXPECT_EQ(f.plan->child(0)->child(0)->type(), OpType::kXmlData);
  EXPECT_EQ(f.plan->child(0)->child(1)->type(), OpType::kXmlData);
}

TEST(RewriteTest, ConsolidationRefusesWhenFieldComesFromRemoteSide) {
  // Outer join condition reads a field only X provides: reorder unsound.
  AbsorptionFixture f(5);
  auto inner = PlanNode::Join(JoinEq("k", "xk"), f.a, f.x);
  auto plan = PlanNode::Join(JoinEq("xfield", "bk"), inner, f.b);
  EXPECT_EQ(ConsolidateJoins(plan.get(), Locality{}), 0);
}

TEST(RewriteTest, AbsorptionGateRequiresShrinkage) {
  CostModel cost;
  // |A ⋈ B| ≈ |A|*|B|*sel. With 5 B-rows: 10*5*0.05 = 2.5 <= 10 → fire.
  AbsorptionFixture small(5);
  EXPECT_EQ(ApplyAbsorption(small.plan.get(), Locality{}, cost), 1);
  // With 50 B-rows: 10*50*0.05 = 25 > 10 → don't fire.
  AbsorptionFixture big(50);
  for (int i = 0; i < 40; ++i) {
    big.b_items.push_back(ItemFrom("<i><bk>9</bk></i>"));
  }
  EXPECT_EQ(ApplyAbsorption(big.plan.get(), Locality{}, cost), 0);
}

TEST(RewriteTest, ConsolidationPreservesJoinResults) {
  // Same results evaluated before and after the rewrite once X resolves.
  AbsorptionFixture f(5);
  auto rewritten = f.plan->Clone();
  ASSERT_EQ(ConsolidateJoins(rewritten.get(), Locality{}), 1);
  // Resolve X identically in both plans.
  ItemSet x_items;
  for (int i = 0; i < 10; i += 2) {
    x_items.push_back(ItemFrom("<i><xk>" + std::to_string(i) +
                               "</xk><xx>7</xx></i>"));
  }
  auto bind = [&](PlanNodePtr& root) {
    for (const PlanNode* u : root->UrnLeaves()) {
      const_cast<PlanNode*>(u)->MorphToData(x_items);
    }
  };
  bind(f.plan);
  bind(rewritten);
  // The original joins A⋈X on k=xk then ⋈B on k=bk; the rewritten joins
  // A⋈B on k=bk then ⋈X on k=xk. Equal multisets of merged items up to
  // field order; compare counts and key sets.
  auto r1 = engine::Evaluate(*f.plan);
  auto r2 = engine::Evaluate(*rewritten);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->size(), r2->size());
  auto keys = [](const ItemSet& items) {
    std::multiset<std::string> out;
    for (const auto& i : items) out.insert(i->ChildText("k"));
    return out;
  };
  EXPECT_EQ(keys(*r1), keys(*r2));
}

TEST(PolicyTest, EvaluatesSmallResults) {
  CostModel cost;
  PolicyManager pm;
  auto sel = PlanNode::Select(FieldLess("price", "10"),
                              PlanNode::XmlData(SmallData(10)));
  auto decisions = pm.Decide({sel.get()}, cost);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].evaluate);
  EXPECT_EQ(decisions[0].reason, "evaluate");
}

TEST(PolicyTest, DefersGrowingJoins) {
  CostModel cost;
  PolicyManager pm;
  // A cross-like join whose estimate far exceeds its inputs.
  auto l = PlanNode::XmlData(SmallData(60));
  auto r = PlanNode::XmlData(SmallData(60));
  for (auto* node : {l.get(), r.get()}) {
    (void)node;
  }
  auto join = PlanNode::Join(JoinEq("k", "k"), l, r);
  // Force a pessimistic estimate via annotations.
  join->annotations();
  auto decisions = pm.Decide({join.get()}, cost);
  ASSERT_EQ(decisions.size(), 1u);
  // 60*60*0.05 = 180 rows vs 120 input rows → growth beyond 1.25×.
  EXPECT_FALSE(decisions[0].evaluate);
  EXPECT_EQ(decisions[0].reason, "defer:growth");
  // §5.1: the deferred node is annotated for downstream servers.
  EXPECT_TRUE(join->annotations().cardinality.has_value());
  EXPECT_TRUE(join->annotations().bytes.has_value());
}

TEST(PolicyTest, DefersOversizedResults) {
  CostParams params;
  CostModel cost(params);
  PolicyConfig config;
  config.max_result_bytes = 64;  // tiny cap
  PolicyManager pm(config);
  auto data = PlanNode::XmlData(SmallData(50));
  auto sel = PlanNode::Select(FieldLess("price", "1000"), data);
  auto decisions = pm.Decide({sel.get()}, cost);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].evaluate);
  EXPECT_EQ(decisions[0].reason, "defer:size");
}

TEST(PolicyTest, DefermentDisabledEvaluatesEverything) {
  CostModel cost;
  PolicyConfig config;
  config.enable_deferment = false;
  PolicyManager pm(config);
  auto join = PlanNode::Join(JoinEq("k", "k"), PlanNode::XmlData(SmallData(60)),
                             PlanNode::XmlData(SmallData(60)));
  auto decisions = pm.Decide({join.get()}, cost);
  EXPECT_TRUE(decisions[0].evaluate);
}

}  // namespace
}  // namespace mqp::optimizer
