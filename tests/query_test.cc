// Query-language front-end tests: parsing, plan shapes, and end-to-end
// execution over a simulated network.
#include <gtest/gtest.h>

#include "net/simulator.h"
#include "common/strings.h"
#include "engine/operator.h"
#include "query/parser.h"
#include "support/dom_parser.h"
#include "workload/network_builder.h"

namespace mqp::query {
namespace {

using algebra::OpType;

TEST(QueryParseTest, SelectStarFromUrn) {
  auto plan = Parse("select * from urn:ForSale:Portland-CDs");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->root()->type(), OpType::kUrn);
  EXPECT_EQ(plan->root()->urn(), "urn:ForSale:Portland-CDs");
}

TEST(QueryParseTest, WherePredicate) {
  auto plan = Parse("select * from urn:X:Y where price < 10");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->root()->type(), OpType::kSelect);
  EXPECT_EQ(plan->root()->expr()->ToString(), "price < '10'");
}

TEST(QueryParseTest, ProjectionList) {
  auto plan = Parse("select title, price from urn:X:Y");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->root()->type(), OpType::kProject);
  EXPECT_EQ(plan->root()->fields(),
            (std::vector<std::string>{"title", "price"}));
}

TEST(QueryParseTest, AreaSource) {
  auto plan = Parse("select * from area(\"(USA.OR,Music)\")");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->root()->urn(), "urn:InterestArea:(USA.OR,Music)");
}

TEST(QueryParseTest, JoinOnCondition) {
  auto plan = Parse(
      "select * from urn:A:a join urn:B:b on title = CDtitle "
      "join urn:C:c on song = name");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const auto* outer = plan->root().get();
  ASSERT_EQ(outer->type(), OpType::kJoin);
  EXPECT_EQ(outer->expr()->ToString(), "song = right.name");
  const auto* inner = outer->child(0).get();
  ASSERT_EQ(inner->type(), OpType::kJoin);
  EXPECT_EQ(inner->expr()->ToString(), "title = right.CDtitle");
  EXPECT_EQ(inner->child(0)->urn(), "urn:A:a");
  EXPECT_EQ(outer->child(1)->urn(), "urn:C:c");
}

TEST(QueryParseTest, BooleanOperatorsAndPrecedence) {
  auto plan = Parse(
      "select * from urn:X:Y where a = 1 and b = 2 or not c = 3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // OR binds loosest: ((a AND b) OR (NOT c)).
  EXPECT_EQ(plan->root()->expr()->ToString(),
            "((a = '1' AND b = '2') OR NOT (c = '3'))");
}

TEST(QueryParseTest, ParenthesesOverridePrecedence) {
  auto plan =
      Parse("select * from urn:X:Y where a = 1 and (b = 2 or c = 3)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->root()->expr()->ToString(),
            "(a = '1' AND (b = '2' OR c = '3'))");
}

TEST(QueryParseTest, WithinPredicate) {
  auto plan =
      Parse("select * from urn:X:Y where location within 'USA/OR'");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->root()->expr()->ToString(), "location within 'USA/OR'");
}

TEST(QueryParseTest, ExistsPredicate) {
  auto plan = Parse("select * from urn:X:Y where exists(image)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->root()->expr()->ToString(), "EXISTS(image)");
}

TEST(QueryParseTest, StringLiteralsBothQuotes) {
  auto p1 = Parse("select * from urn:X:Y where name = 'two words'");
  ASSERT_TRUE(p1.ok());
  auto p2 = Parse("select * from urn:X:Y where name = \"two words\"");
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p1->root()->expr()->Equals(*p2->root()->expr()));
}

TEST(QueryParseTest, Aggregates) {
  auto count = Parse("select count(*) from urn:X:Y");
  ASSERT_TRUE(count.ok()) << count.status();
  ASSERT_EQ(count->root()->type(), OpType::kAggregate);
  EXPECT_EQ(count->root()->agg_func(), algebra::AggFunc::kCount);

  auto avg = Parse("select avg(price) from urn:X:Y group by category");
  ASSERT_TRUE(avg.ok()) << avg.status();
  ASSERT_EQ(avg->root()->type(), OpType::kAggregate);
  EXPECT_EQ(avg->root()->agg_func(), algebra::AggFunc::kAvg);
  EXPECT_EQ(avg->root()->agg_field(), "price");
  EXPECT_EQ(avg->root()->group_by(), "category");
}

TEST(QueryParseTest, OrderLimit) {
  auto plan = Parse(
      "select title from urn:X:Y where price < 10 "
      "order by price desc limit 3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // project(topn(select(urn)))
  ASSERT_EQ(plan->root()->type(), OpType::kProject);
  const auto* topn = plan->root()->child(0).get();
  ASSERT_EQ(topn->type(), OpType::kTopN);
  EXPECT_EQ(topn->limit(), 3u);
  EXPECT_EQ(topn->order_field(), "price");
  EXPECT_FALSE(topn->ascending());
  EXPECT_EQ(topn->child(0)->type(), OpType::kSelect);
}

TEST(QueryParseTest, CaseInsensitiveKeywords) {
  auto plan = Parse("SELECT * FROM urn:X:Y WHERE price < 5 ORDER BY price "
                    "ASC LIMIT 1");
  ASSERT_TRUE(plan.ok()) << plan.status();
}

TEST(QueryParseTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("select").ok());
  EXPECT_FALSE(Parse("select * from").ok());
  EXPECT_FALSE(Parse("select * from notaurn").ok());
  EXPECT_FALSE(Parse("select * from urn:X:Y where").ok());
  EXPECT_FALSE(Parse("select * from urn:X:Y where price <").ok());
  EXPECT_FALSE(Parse("select * from urn:X:Y limit 5").ok());  // no order
  EXPECT_FALSE(Parse("select * from urn:X:Y group by x").ok());  // no agg
  EXPECT_FALSE(Parse("select sum(*) from urn:X:Y").ok());
  EXPECT_FALSE(Parse("select * from urn:X:Y trailing").ok());
  EXPECT_FALSE(Parse("select * from urn:X:Y where name = 'unterminated").ok());
  EXPECT_FALSE(Parse("select * from area(USA)").ok());  // area needs string
  EXPECT_FALSE(Parse("select * from urn:A:a join urn:B:b").ok());  // no ON
}

TEST(QueryParseTest, PlanSerializesToWireFormat) {
  auto plan = Parse(
      "select title from urn:X:Y where price < 10 order by price limit 2");
  ASSERT_TRUE(plan.ok());
  auto back = algebra::ParsePlan(algebra::SerializePlan(*plan));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(plan->root()->Equals(*back->root()));
}

TEST(QueryEndToEndTest, TextQueryOverGarageSaleNetwork) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 12;
  params.items_per_seller = 8;
  params.seed = 23;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);

  auto plan = Parse(
      "select name, price from area(\"(USA,*)\") "
      "where price < 40 order by price asc limit 5");
  ASSERT_TRUE(plan.ok()) << plan.status();

  peer::QueryOutcome outcome;
  bool done = false;
  net.client->SubmitQuery(std::move(plan).value(),
                          [&](const peer::QueryOutcome& o) {
                            outcome = o;
                            done = true;
                          });
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.complete);
  ASSERT_LE(outcome.items.size(), 5u);
  // Ordered ascending by price; every item projected to name+price.
  double prev = 0;
  for (const auto& item : outcome.items) {
    double price = 0;
    ASSERT_TRUE(mqp::ParseDouble(item->ChildText("price"), &price));
    EXPECT_LT(price, 40);
    EXPECT_GE(price, prev);
    prev = price;
    EXPECT_NE(item->Child("name"), nullptr);
    EXPECT_EQ(item->Child("location"), nullptr);  // projected away
  }
}

TEST(QueryEndToEndTest, CountByCategory) {
  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 10;
  params.items_per_seller = 5;
  params.seed = 29;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);

  auto plan =
      Parse("select count(*) from area(\"(USA.OR,*)\") group by category");
  ASSERT_TRUE(plan.ok()) << plan.status();
  peer::QueryOutcome outcome;
  bool done = false;
  net.client->SubmitQuery(std::move(plan).value(),
                          [&](const peer::QueryOutcome& o) {
                            outcome = o;
                            done = true;
                          });
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(outcome.complete);
  // The per-category counts sum to the ground-truth item count.
  size_t total = 0;
  for (const auto& row : outcome.items) {
    int64_t n = 0;
    ASSERT_TRUE(mqp::ParseInt64(row->ChildText("count"), &n));
    total += static_cast<size_t>(n);
  }
  EXPECT_EQ(total, workload::GarageSaleGenerator::CountInArea(
                       net.all_items, *ns::InterestArea::Parse("(USA.OR,*)")));
}

}  // namespace
}  // namespace mqp::query
