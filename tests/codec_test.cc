// Streaming XML codec: token reader/writer equivalence with the DOM
// parser and serializer, randomized plan decode/encode equivalence with
// the DOM plan codec in tests/support (1000 seeds), wire-size pinning,
// entity round-trip properties, byte-offset errors on malformed inputs
// from both codecs, and verbatim data leaves (the canonical-run
// recognizer, items built on first read, and which plan changes keep the
// carried bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>

#include "algebra/plan.h"
#include "algebra/plan_xml.h"
#include "catalog/versioned.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/local_store.h"
#include "engine/operator.h"
#include "net/message.h"
#include "optimizer/cost.h"
#include "support/dom_parser.h"
#include "support/dom_plan_codec.h"
#include "wire/body_codec.h"
#include "xml/node.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"
#include "xml/writer.h"

namespace mqp {
namespace {

using algebra::AggFunc;
using algebra::Annotations;
using algebra::Expr;
using algebra::ExprPtr;
using algebra::FieldHistogram;
using algebra::Item;
using algebra::ItemSet;
using algebra::Plan;
using algebra::PlanNode;
using algebra::PlanNodePtr;
using algebra::ProvenanceAction;

// --- randomized inputs ----------------------------------------------------------

// Strings that exercise escaping: entities, both quote kinds, angle
// brackets, plus plain words (never whitespace-only).
std::string RandomSpicyText(Rng* rng) {
  static const char* kSpice[] = {"&",  "<",   ">",    "\"", "'",
                                 "&&", "<b>", "a&b;", "]]>", "&#65;"};
  std::string out = rng->NextWord(3);
  const int pieces = static_cast<int>(rng->NextBelow(4));
  for (int i = 0; i < pieces; ++i) {
    out += kSpice[rng->NextBelow(std::size(kSpice))];
    out += rng->NextWord(2);
  }
  return out;
}

Item RandomItem(Rng* rng) {
  auto n = xml::Node::Element("item");
  n->SetAttr("id", std::to_string(rng->NextBelow(100000)));
  if (rng->NextBool(0.4)) n->SetAttr("note", RandomSpicyText(rng));
  n->AddElementWithText("price", std::to_string(rng->NextBelow(500)));
  if (rng->NextBool(0.6)) {
    n->AddElementWithText("title", RandomSpicyText(rng));
  }
  if (rng->NextBool(0.3)) {
    xml::Node* deep = n->AddElement("seller");
    deep->SetAttr("name", RandomSpicyText(rng));
    deep->AddElementWithText("city", rng->NextWord(6));
  }
  return Item(n.release());
}

ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->NextBool(0.4)) {
    switch (rng->NextBelow(3)) {
      case 0:
        return Expr::Field(rng->NextWord(4));
      case 1:
        return Expr::Literal(RandomSpicyText(rng));
      default:
        return Expr::Exists(rng->NextWord(4));
    }
  }
  switch (rng->NextBelow(4)) {
    case 0:
      return Expr::Compare(
          static_cast<algebra::CompareOp>(rng->NextBelow(7)),
          RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 1:
      return Expr::And(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 2:
      return Expr::Or(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    default:
      return Expr::Not(RandomExpr(rng, depth - 1));
  }
}

void MaybeAnnotate(Rng* rng, PlanNode* node) {
  Annotations& a = node->annotations();
  if (rng->NextBool(0.3)) a.cardinality = rng->NextBelow(100000);
  if (rng->NextBool(0.3)) a.bytes = rng->NextBelow(1u << 20);
  // distinct_keys shares its attribute with union's distinct flag; keep
  // the generator off that collision so annotations round-trip exactly.
  if (rng->NextBool(0.2) && node->type() != algebra::OpType::kUnion) {
    a.distinct_keys = rng->NextBelow(1000);
  }
  if (rng->NextBool(0.2)) {
    a.staleness_minutes = static_cast<int>(rng->NextBelow(120));
  }
  if (rng->NextBool(0.2)) {
    FieldHistogram h;
    h.field = rng->NextWord(4);
    h.min = 1;
    h.max = 100;
    h.total = 10;
    const size_t buckets = 1 + rng->NextBelow(4);
    for (size_t i = 0; i < buckets; ++i) {
      h.counts.push_back(rng->NextBelow(10));
    }
    a.histograms.push_back(std::move(h));
  }
  if (rng->NextBool(0.2)) {
    algebra::TopKBound tk;
    tk.order_field = rng->NextWord(4);
    tk.ascending = rng->NextBool();
    tk.k = 1 + rng->NextBelow(50);
    tk.batch = rng->NextBelow(20);
    tk.cont = rng->NextBelow(100);
    tk.leaf = static_cast<uint32_t>(rng->NextBelow(8));
    if (rng->NextBool(0.5)) {
      tk.has_bound = true;
      tk.bound_key = std::to_string(rng->NextBelow(1000)) + "." +
                     std::to_string(rng->NextBelow(10));
      tk.bound_leaf = static_cast<uint32_t>(rng->NextBelow(8));
    }
    a.topk = std::move(tk);
  }
}

// Random operator DAG. `pool` holds previously built nodes; with some
// probability a node is reused, producing shared sub-DAGs (node-id/ref).
PlanNodePtr RandomNode(Rng* rng, int depth, bool with_items,
                       std::vector<PlanNodePtr>* pool) {
  if (!pool->empty() && rng->NextBool(0.15)) {
    return (*pool)[rng->NextBelow(pool->size())];
  }
  PlanNodePtr node;
  if (depth <= 0) {
    switch (rng->NextBelow(3)) {
      case 0: {
        if (with_items) {
          ItemSet items;
          const size_t n = rng->NextBelow(4);
          for (size_t i = 0; i < n; ++i) items.push_back(RandomItem(rng));
          node = PlanNode::XmlData(std::move(items));
          break;
        }
        node = PlanNode::UrnRef("urn:InterestArea:(USA.OR,*)");
        break;
      }
      case 1:
        node = PlanNode::Url("10.0.0." + std::to_string(rng->NextBelow(99)) +
                                 ":9020",
                             rng->NextBool() ? "/data[id=c1]" : "");
        break;
      default:
        node = PlanNode::UrnRef(
            "urn:ForSale:" + rng->NextWord(5),
            rng->NextBool(0.3) ? "10.0.0.7:9020" : "");
        break;
    }
  } else {
    switch (rng->NextBelow(7)) {
      case 0:
        node = PlanNode::Select(RandomExpr(rng, 2),
                                RandomNode(rng, depth - 1, with_items, pool));
        break;
      case 1:
        node = PlanNode::Project(
            {rng->NextWord(4), rng->NextWord(3)},
            RandomNode(rng, depth - 1, with_items, pool));
        break;
      case 2:
        node = PlanNode::Join(RandomExpr(rng, 2),
                              RandomNode(rng, depth - 1, with_items, pool),
                              RandomNode(rng, depth - 1, with_items, pool));
        break;
      case 3: {
        std::vector<PlanNodePtr> inputs;
        const size_t n = 1 + rng->NextBelow(3);
        for (size_t i = 0; i < n; ++i) {
          inputs.push_back(RandomNode(rng, depth - 1, with_items, pool));
        }
        node = PlanNode::Union(std::move(inputs), rng->NextBool(0.3));
        break;
      }
      case 4:
        node = PlanNode::Difference(
            RandomNode(rng, depth - 1, with_items, pool),
            RandomNode(rng, depth - 1, with_items, pool));
        break;
      case 5:
        node = PlanNode::Aggregate(
            static_cast<AggFunc>(rng->NextBelow(5)), rng->NextWord(4),
            rng->NextBool(0.5) ? rng->NextWord(3) : "",
            RandomNode(rng, depth - 1, with_items, pool));
        break;
      default:
        // Sometimes unbounded (plain ORDER BY): no n attribute on the
        // wire, distinct from every finite limit including 0.
        node = PlanNode::TopN(
            rng->NextBool(0.2)
                ? std::nullopt
                : std::optional<uint64_t>(rng->NextBelow(50)),
            rng->NextWord(4), rng->NextBool(),
            RandomNode(rng, depth - 1, with_items, pool));
        break;
    }
  }
  MaybeAnnotate(rng, node.get());
  pool->push_back(node);
  return node;
}

Plan RandomPlan(uint64_t seed, bool with_items = true) {
  Rng rng(seed);
  std::vector<PlanNodePtr> pool;
  const int depth = 1 + static_cast<int>(rng.NextBelow(4));
  Plan plan(PlanNode::Display("10.0.0.1:9020",
                              RandomNode(&rng, depth, with_items, &pool)));
  plan.set_query_id("q" + std::to_string(seed));
  if (rng.NextBool(0.5)) plan.set_submitted_at(rng.NextDouble() * 100);
  if (rng.NextBool(0.4)) plan.SnapshotOriginal();
  if (rng.NextBool(0.5)) {
    const size_t visits = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < visits; ++i) {
      plan.provenance().Add(
          {"10.0.0." + std::to_string(rng.NextBelow(20)) + ":9020",
           rng.NextDouble() * 10,
           static_cast<ProvenanceAction>(rng.NextBelow(6)),
           rng.NextBool(0.5) ? RandomSpicyText(&rng) : "",
           static_cast<int>(rng.NextBelow(60))});
    }
  }
  if (rng.NextBool(0.3)) {
    plan.policy().time_budget_seconds = 1 + rng.NextDouble() * 10;
    plan.policy().preference = rng.NextBool()
                                   ? algebra::AnswerPreference::kCurrent
                                   : algebra::AnswerPreference::kComplete;
    if (rng.NextBool(0.5)) {
      plan.policy().route_allow = {"10.0.0.3:9020", "10.0.0.4:9020"};
    }
    if (rng.NextBool(0.5)) {
      plan.policy().bind_after.emplace_back("urn:a", "urn:b");
    }
  }
  return plan;
}

// --- token reader vs DOM parser -------------------------------------------------

// Walks tokens and rebuilds a DOM; must equal Parse() on any input the
// DOM parser accepts (MaterializeSubtree *is* that walk).
TEST(TokenReaderTest, MaterializeMatchesDomParserOnRandomTrees) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    auto item = RandomItem(&rng);
    const std::string s = xml::Serialize(*item);
    auto dom = xml::Parse(s);
    ASSERT_TRUE(dom.ok()) << seed << ": " << dom.status();
    xml::TokenReader r(s);
    auto t = r.Next();
    ASSERT_TRUE(t.ok()) << seed << ": " << t.status();
    ASSERT_EQ(t->type, xml::TokenType::kStartElement);
    auto tree = r.MaterializeSubtree();
    ASSERT_TRUE(tree.ok()) << seed << ": " << tree.status();
    EXPECT_TRUE((*tree)->Equals(**dom)) << "seed " << seed << "\n" << s;
    auto end = r.Next();
    ASSERT_TRUE(end.ok());
    EXPECT_EQ(end->type, xml::TokenType::kEndOfInput);
  }
}

TEST(TokenReaderTest, AgreesWithDomOnEntitiesAndCharacterReferences) {
  // Hand-written input (not serializer output): mixed quoting, decimal
  // and hex character references, CDATA, comments inside text runs.
  const std::string s =
      "<doc a=\"x&amp;y&lt;z\" b='q&quot;u&apos;o&#65;&#x42;'>"
      "t1&amp;<!-- c -->t2&#67;<![CDATA[<raw&>]]></doc>";
  auto dom = xml::Parse(s);
  ASSERT_TRUE(dom.ok()) << dom.status();

  xml::TokenReader r(s);
  auto t = r.Next();
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->type, xml::TokenType::kStartElement);
  xml::AttrList attrs;
  auto content = r.ReadAttrs(&attrs);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(attrs.Get("a"), (*dom)->AttrOr("a", "?"));
  EXPECT_EQ(attrs.Get("b"), (*dom)->AttrOr("b", "?"));
  EXPECT_EQ(attrs.Get("a"), "x&y<z");
  EXPECT_EQ(attrs.Get("b"), "q\"u'oAB");
  ASSERT_EQ(content->type, xml::TokenType::kText);
  EXPECT_EQ(content->value, (*dom)->InnerText());
  EXPECT_EQ(content->value, "t1&t2C<raw&>");
}

// S2: Parse(Serialize(t)) and the token reader agree on text/attrs
// containing the five specials and character references.
TEST(TokenReaderTest, EscapingRoundTripProperty) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed + 5000);
    auto doc = xml::Node::Element("d");
    doc->SetAttr("a", RandomSpicyText(&rng));
    doc->AddText(RandomSpicyText(&rng));
    const std::string s = xml::Serialize(*doc);
    // DOM round trip.
    auto back = xml::Parse(s);
    ASSERT_TRUE(back.ok()) << seed << ": " << back.status() << "\n" << s;
    EXPECT_TRUE((*back)->Equals(*doc)) << seed << "\n" << s;
    // Token round trip agrees with the DOM one.
    xml::TokenReader r(s);
    ASSERT_TRUE(r.Next().ok());
    xml::AttrList attrs;
    auto t = r.ReadAttrs(&attrs);
    ASSERT_TRUE(t.ok()) << seed << ": " << t.status();
    EXPECT_EQ(attrs.Get("a"), (*back)->AttrOr("a", "?")) << seed;
    ASSERT_EQ(t->type, xml::TokenType::kText) << seed;
    EXPECT_EQ(t->value, (*back)->InnerText()) << seed;
  }
}

TEST(TokenWriterTest, MatchesDomSerializerOnRandomTrees) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed + 900);
    auto item = RandomItem(&rng);
    const std::string dom_bytes = xml::Serialize(*item);
    std::string stream_bytes;
    xml::TokenWriter w(&stream_bytes);
    w.Write(*item);
    EXPECT_TRUE(w.balanced());
    EXPECT_EQ(stream_bytes, dom_bytes) << "seed " << seed;
    // Counting sink prices identically.
    xml::TokenWriter counter;
    counter.Write(*item);
    EXPECT_EQ(counter.size(), dom_bytes.size()) << "seed " << seed;
  }
}

// S1 (first half): the DOM size model matches the DOM serializer.
TEST(SerializedSizeTest, MatchesSerializeAcrossRandomTrees) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed + 31);
    auto item = RandomItem(&rng);
    EXPECT_EQ(xml::SerializedSize(*item), xml::Serialize(*item).size())
        << "seed " << seed;
  }
}

// --- plan codec equivalence ------------------------------------------------------

// S3 + S1 (second half): 1000 seeds; the streaming codec and the DOM
// reference agree byte-for-byte on encode, sizes match real bytes on
// both, decode agrees (checked by re-serializing both parses), and round
// trips are stable. Plans cover shared sub-DAGs, annotations,
// histograms, verbatim data sections, provenance, policy, and retained
// originals.
TEST(PlanCodecEquivalenceTest, RandomizedPlansAcrossBothPaths) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    const Plan plan = RandomPlan(seed);
    const std::string stream_bytes = algebra::SerializePlan(plan);
    const size_t stream_size = algebra::PlanWireSize(plan);
    const std::string dom_bytes = dom::SerializePlan(plan);
    const size_t dom_size = dom::PlanWireSize(plan);
    ASSERT_EQ(stream_bytes, dom_bytes) << "seed " << seed;
    EXPECT_EQ(stream_size, stream_bytes.size()) << "seed " << seed;
    EXPECT_EQ(dom_size, dom_bytes.size()) << "seed " << seed;

    // Decode through both codecs; re-serialize to compare full fidelity
    // (structure, sharing, annotations, items, provenance, policy).
    std::string stream_reserialized, dom_reserialized;
    {
      auto parsed = algebra::ParsePlan(stream_bytes);
      ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << parsed.status();
      stream_reserialized = algebra::SerializePlan(*parsed);
    }
    {
      auto parsed = dom::ParsePlan(dom_bytes);
      ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << parsed.status();
      dom_reserialized = dom::SerializePlan(*parsed);
    }
    EXPECT_EQ(stream_reserialized, dom_reserialized) << "seed " << seed;
    // Round-trip stability: canonical bytes reproduce themselves.
    EXPECT_EQ(stream_reserialized, stream_bytes) << "seed " << seed;
  }
}

TEST(PlanCodecEquivalenceTest, StreamingDecodeBuildsZeroDomNodesWithoutItems) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const Plan plan = RandomPlan(seed, /*with_items=*/false);
    const std::string bytes = algebra::SerializePlan(plan);
    const uint64_t before = xml::DomNodesBuilt();
    auto parsed = algebra::ParsePlan(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(xml::DomNodesBuilt() - before, 0u) << "seed " << seed;
  }
}

TEST(PlanCodecEquivalenceTest, StreamingDecodeMaterializesOnlyDataItems) {
  // One data leaf with two items, each a single element with one text
  // child (price) — count exactly those nodes and nothing else. The
  // decode keeps the canonical items as bytes; the first read builds
  // them, once.
  ItemSet items;
  for (int i = 0; i < 2; ++i) {
    auto n = xml::Node::Element("item");
    n->AddElementWithText("price", std::to_string(10 + i));
    items.push_back(Item(n.release()));
  }
  Plan plan(PlanNode::Display(
      "10.0.0.1:9020",
      PlanNode::Select(algebra::FieldLess("price", "100"),
                       PlanNode::XmlData(std::move(items)))));
  const std::string bytes = algebra::SerializePlan(plan);
  uint64_t before = xml::DomNodesBuilt();
  auto parsed = algebra::ParsePlan(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(xml::DomNodesBuilt() - before, 0u);
  const PlanNode& leaf = *parsed->root()->child(0)->child(0);
  before = xml::DomNodesBuilt();
  EXPECT_EQ(leaf.items().size(), 2u);
  // Per item: <item>, <price>, text("10") = 3 nodes; 2 items = 6.
  EXPECT_EQ(xml::DomNodesBuilt() - before, 6u);
  before = xml::DomNodesBuilt();
  EXPECT_EQ(leaf.items().size(), 2u);
  EXPECT_EQ(xml::DomNodesBuilt() - before, 0u);
}

// S3 (malformed half): lexically broken inputs error on both codecs, with
// byte offsets where the DOM parser reports them.
TEST(PlanCodecEquivalenceTest, MalformedInputsErrorOnBothPathsWithOffsets) {
  struct Case {
    const char* name;
    std::string input;
    bool offset_expected;
  };
  const std::vector<Case> cases = {
      {"mismatched-close",
       "<mqp><plan><data></plan></mqp>", true},
      {"unknown-entity",
       "<mqp><plan><data><i>&bogus;</i></data></plan></mqp>", true},
      {"bad-char-ref",
       "<mqp><plan><data><i>&#xFFFFFFFF;</i></data></plan></mqp>", true},
      {"unterminated-attr",
       "<mqp query-id=\"q1><plan><data/></plan></mqp>", true},
      {"unterminated-entity",
       "<mqp><plan><data><i>&amp</i></data></plan></mqp>", true},
      {"attr-missing-eq",
       "<mqp><plan><urn name "
       "\"x\"/></plan></mqp>", true},
      {"trailing-root",
       "<mqp><plan><data/></plan></mqp><oops/>", false},
      {"character-data-at-top",
       "stray<mqp><plan><data/></plan></mqp>", true},
      {"truncated",
       "<mqp><plan><select><field path=\"p\"/>", false},
      {"dangling-ref",
       "<mqp><plan><union><ref id=\"9\"/></union></plan></mqp>", false},
      {"bad-topn-n",
       "<mqp><plan><topn n=\"x\"><data/></topn></plan></mqp>", false},
      {"not-mqp-root",
       "<zap><plan><data/></plan></zap>", false},
      {"missing-plan", "<mqp></mqp>", false},
      {"empty-plan", "<mqp><plan>  </plan></mqp>", false},
  };
  for (const auto& c : cases) {
    const Status stream_status = algebra::ParsePlan(c.input).status();
    const Status dom_status = dom::ParsePlan(c.input).status();
    EXPECT_FALSE(stream_status.ok()) << c.name;
    EXPECT_FALSE(dom_status.ok()) << c.name;
    if (c.offset_expected) {
      EXPECT_NE(stream_status.ToString().find("at byte"), std::string::npos)
          << c.name << ": " << stream_status.ToString();
      EXPECT_NE(dom_status.ToString().find("at byte"), std::string::npos)
          << c.name << ": " << dom_status.ToString();
    }
  }
}

// --- verbatim data leaves ---------------------------------------------------------

// Every distinct data leaf of the plan's operator DAGs (root and
// original).
std::vector<PlanNode*> DataLeaves(const Plan& plan) {
  std::vector<PlanNode*> seen, out;
  std::vector<PlanNode*> stack;
  for (const auto& r : {plan.root(), plan.original()}) {
    if (r != nullptr) stack.push_back(r.get());
  }
  while (!stack.empty()) {
    PlanNode* n = stack.back();
    stack.pop_back();
    if (std::find(seen.begin(), seen.end(), n) != seen.end()) continue;
    seen.push_back(n);
    if (n->type() == algebra::OpType::kXmlData) out.push_back(n);
    for (const auto& c : n->children()) stack.push_back(c.get());
  }
  return out;
}

std::string ItemRun(const ItemSet& items) {
  std::string out;
  xml::TokenWriter w(&out);
  for (const Item& i : items) w.Write(*i);
  return out;
}

// The items the eager path decodes from a run (every element child of a
// <data> element, materialized), written back out.
std::string EagerRewrite(std::string_view run) {
  const std::string doc = "<data>" + std::string(run) + "</data>";
  xml::TokenReader r(doc);
  EXPECT_TRUE(r.Advance());
  xml::AttrList attrs;
  auto t = r.ReadAttrs(&attrs);
  ItemSet items;
  while (t.ok() && t->type != xml::TokenType::kEndElement) {
    if (t->type == xml::TokenType::kStartElement) {
      auto item = r.MaterializeSubtree();
      if (!item.ok()) break;
      items.push_back(Item(std::move(item).value().release()));
    }
    t = r.Next();
  }
  return ItemRun(items);
}

// A plan document whose only data leaf holds `run`; canonical whenever
// `run` is.
std::string PlanDocWithData(std::string_view run) {
  return "<mqp query-id=\"q\"><plan><display target=\"10.0.0.1:9020\">"
         "<data>" +
         std::string(run) + "</data></display></plan></mqp>";
}

// What the plan decoder reported for a malformed document before data
// leaves went verbatim: its first tokenizer error, which a bare token
// walk over the document reproduces.
Status TokenWalkStatus(std::string_view doc) {
  xml::TokenReader r(doc);
  while (r.Advance() && r.current().type != xml::TokenType::kEndOfInput) {
  }
  return r.status();
}

// One well-formed, non-canonical variant of `run` per recognizer rule.
// `run` starts with a RandomItem: `<item id="N"><price>P</price>...`.
std::vector<std::pair<std::string, std::string>> NonCanonicalVariants(
    const std::string& run) {
  const size_t tag_end = run.find('>');     // end of the first start tag
  const size_t id_value = run.find("id=\"") + 4;
  const size_t price_text = run.find("<price>") + 7;
  auto insert = [&](size_t at, std::string_view what) {
    std::string out = run;
    out.insert(at, what);
    return out;
  };
  std::string single_quoted = run;
  single_quoted[id_value - 1] = '\'';
  single_quoted[run.find('"', id_value)] = '\'';
  return {
      {"space-before-gt", insert(tag_end, " ")},
      {"double-space", insert(id_value - 5, " ")},
      {"space-around-eq", insert(id_value - 2, " ")},
      {"single-quotes", single_quoted},
      {"empty-pair", insert(tag_end + 1, "<e></e>")},
      {"whitespace-text", insert(tag_end + 1, " \n")},
      {"text-char-ref", insert(price_text, "&#65;")},
      {"text-quot", insert(price_text, "&quot;")},
      {"text-apos", insert(price_text, "&apos;")},
      {"attr-char-ref", insert(id_value, "&#65;")},
      {"raw-gt-text", insert(price_text, ">")},
      {"raw-lt-attr", insert(id_value, "<")},
      {"raw-gt-attr", insert(id_value, ">")},
      {"raw-apos-attr", insert(id_value, "'")},
      {"comment", insert(tag_end + 1, "<!--c-->")},
      {"cdata", insert(price_text, "<![CDATA[x]]>")},
      {"pi", insert(tag_end + 1, "<?pi x?>")},
      {"duplicate-attr", insert(tag_end, " id=\"7\"")},
      {"top-level-histogram",
       run + "<histogram field=\"p\" min=\"1\" max=\"2\" total=\"1\">"
             "<b c=\"1\"/></histogram>"},
      {"top-level-text", run + "x"},
  };
}

// The recognizer accepts exactly TokenWriter's compact form. Over 1000
// seeds: RandomItem runs (plus nested <data> elements) are accepted and
// equal the eager decode's re-encoding; one variant per rejection rule
// is rejected and still decodes to the DOM codec's plan, re-encoded
// canonically; truncated and malformed runs fail with the eager path's
// status and offset.
TEST(VerbatimDataTest, RecognizerSweep) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed + 77000);
    ItemSet items;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) items.push_back(RandomItem(&rng));
    const std::string run = ItemRun(items);
    const size_t tag_end = run.find('>');
    std::vector<std::string> accepted = {
        run,
        run + "<data><n>1</n></data>",
        run.substr(0, tag_end + 1) + "<data><n>&lt;</n></data>" +
            run.substr(tag_end + 1),
    };
    for (const std::string& r : accepted) {
      ASSERT_EQ(xml::CanonicalRunEnd(r + "</data>", 0), r.size())
          << "seed " << seed << "\n" << r;
      EXPECT_EQ(EagerRewrite(r), r) << "seed " << seed;
      const std::string doc = PlanDocWithData(r);
      auto lazy = algebra::ParsePlan(doc);
      ASSERT_TRUE(lazy.ok()) << "seed " << seed << ": " << lazy.status();
      const std::vector<PlanNode*> leaves = DataLeaves(*lazy);
      ASSERT_EQ(leaves.size(), 1u);
      EXPECT_EQ(leaves[0]->verbatim_items(), r) << "seed " << seed;
      EXPECT_EQ(algebra::SerializePlan(*lazy), doc) << "seed " << seed;
      EXPECT_EQ(algebra::PlanWireSize(*lazy), doc.size()) << "seed " << seed;
      auto eager = dom::ParsePlan(doc);
      ASSERT_TRUE(eager.ok()) << "seed " << seed;
      EXPECT_TRUE(lazy->root()->Equals(*eager->root())) << "seed " << seed;
      // The recognizer's item count and the run length are the leaf's
      // item count and serialized size, which is what the cost model
      // reads instead of building the items.
      size_t run_items = 0;
      xml::CanonicalRunEnd(r + "</data>", 0, &run_items);
      size_t item_bytes = 0;
      for (const Item& item : leaves[0]->items()) {
        item_bytes += xml::SerializedSize(*item);
      }
      EXPECT_EQ(run_items, leaves[0]->items().size()) << "seed " << seed;
      EXPECT_EQ(leaves[0]->item_count(), run_items) << "seed " << seed;
      EXPECT_EQ(item_bytes, r.size()) << "seed " << seed;
      const optimizer::CostModel cost;
      const optimizer::CostEstimate from_bytes = cost.Estimate(*leaves[0]);
      const optimizer::CostEstimate from_items =
          cost.Estimate(*PlanNode::XmlData(leaves[0]->items()));
      EXPECT_EQ(from_bytes.rows, from_items.rows) << "seed " << seed;
      EXPECT_EQ(from_bytes.bytes, from_items.bytes) << "seed " << seed;
    }
    for (const auto& [rule, variant] : NonCanonicalVariants(run)) {
      EXPECT_EQ(xml::CanonicalRunEnd(variant + "</data>", 0),
                std::string_view::npos)
          << "seed " << seed << " " << rule << "\n" << variant;
      const std::string doc = PlanDocWithData(variant);
      auto lazy = algebra::ParsePlan(doc);
      ASSERT_TRUE(lazy.ok()) << "seed " << seed << " " << rule << ": "
                             << lazy.status();
      EXPECT_TRUE(DataLeaves(*lazy)[0]->verbatim_items().empty()) << rule;
      auto eager = dom::ParsePlan(doc);
      ASSERT_TRUE(eager.ok()) << "seed " << seed << " " << rule;
      EXPECT_TRUE(lazy->root()->Equals(*eager->root()))
          << "seed " << seed << " " << rule;
      EXPECT_EQ(algebra::SerializePlan(*lazy), algebra::SerializePlan(*eager))
          << "seed " << seed << " " << rule;
    }
    const std::string doc = PlanDocWithData(run);
    const size_t data_begin = doc.find("<data>") + 6;
    const size_t first_item = ItemRun({items[0]}).size();
    std::vector<std::string> malformed = {
        // Truncated inside the run, and a run cut inside its first item.
        doc.substr(0, data_begin + 1 + rng.NextBelow(run.size() - 1)),
        PlanDocWithData(run.substr(0, 1 + rng.NextBelow(first_item - 1))),
        // A malformed byte inside the first item.
        PlanDocWithData(run.substr(0, tag_end + 1) + "<>" +
                        run.substr(tag_end + 1)),
        PlanDocWithData(run.substr(0, run.find("<price>") + 7) + "&bogus;" +
                        run.substr(run.find("<price>") + 7)),
    };
    for (const std::string& bad : malformed) {
      const Status expected = TokenWalkStatus(bad);
      ASSERT_FALSE(expected.ok()) << "seed " << seed << "\n" << bad;
      const Status got = algebra::ParsePlan(bad).status();
      EXPECT_EQ(got.ToString(), expected.ToString())
          << "seed " << seed << "\n" << bad;
    }
  }
  // Past the scan's fixed limits (64 open elements, 32 attributes on one
  // element) canonical runs decode eagerly, to the same plan.
  std::string deep, wide = "<w";
  for (int i = 0; i < 65; ++i) deep += "<d>";
  deep += "x";
  for (int i = 0; i < 65; ++i) deep += "</d>";
  for (int i = 0; i < 33; ++i) wide += " a" + std::to_string(i) + "=\"1\"";
  wide += "/>";
  for (const std::string& r : {deep, wide}) {
    EXPECT_EQ(xml::CanonicalRunEnd(r + "</data>", 0), std::string_view::npos);
    const std::string doc = PlanDocWithData(r);
    auto lazy = algebra::ParsePlan(doc);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    EXPECT_TRUE(DataLeaves(*lazy)[0]->verbatim_items().empty());
    EXPECT_EQ(algebra::SerializePlan(*lazy), doc);
  }
}

// Fixed malformed items fail with the exact status text and offset the
// eager decoder reported.
TEST(VerbatimDataTest, MalformedItemsKeepTheEagerErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"<mqp><plan><data><i>&bogus;</i></data></plan></mqp>",
       "ParseError: unknown entity &bogus; (at byte 27)"},
      {"<mqp><plan><data><i a=\"1\"><j></i></data></plan></mqp>",
       "ParseError: mismatched close tag </i> for <j> (at byte 32)"},
      {"<mqp><plan><data><i/></dat></plan></mqp>",
       "ParseError: mismatched close tag </dat> for <data> (at byte 26)"},
      {"<mqp><plan><data><i>x</i><", "ParseError: expected name (at byte 26)"},
  };
  for (const auto& [doc, status] : cases) {
    EXPECT_EQ(algebra::ParsePlan(doc).status().ToString(), status) << doc;
  }
}

// RandomizedPlansAcrossBothPaths with every data leaf's items forced
// through mutable_items() after decoding: the items built from the
// verbatim bytes re-encode byte for byte, not just the forwarded bytes.
TEST(VerbatimDataTest, RandomizedPlansWithItemsForced) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    const Plan plan = RandomPlan(seed);
    std::string bytes, dom_reserialized;
    {
      bytes = dom::SerializePlan(plan);
      auto parsed = dom::ParsePlan(bytes);
      ASSERT_TRUE(parsed.ok()) << "seed " << seed;
      dom_reserialized = dom::SerializePlan(*parsed);
    }
    auto parsed = algebra::ParsePlan(net::MakePayload(bytes));
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << parsed.status();
    for (PlanNode* leaf : DataLeaves(*parsed)) {
      leaf->mutable_items();
      EXPECT_TRUE(leaf->verbatim_items().empty()) << "seed " << seed;
    }
    EXPECT_EQ(algebra::SerializePlan(*parsed), bytes) << "seed " << seed;
    EXPECT_EQ(algebra::SerializePlan(*parsed), dom_reserialized)
        << "seed " << seed;
    EXPECT_EQ(algebra::PlanWireSize(*parsed), bytes.size()) << "seed " << seed;
  }
}

// Which changes keep a leaf's verbatim bytes and which re-encode it from
// DOM, and where the bytes live.
TEST(VerbatimDataTest, MutationsKeepOrDropTheBytes) {
  Rng rng(5);
  ItemSet items;
  for (int i = 0; i < 3; ++i) items.push_back(RandomItem(&rng));
  const std::string run = ItemRun(items);
  const net::Payload bytes = net::MakePayload(PlanDocWithData(run));
  auto decode = [&]() {
    auto p = algebra::ParsePlan(bytes);
    EXPECT_TRUE(p.ok()) << p.status();
    return std::move(p).value();
  };
  auto leaf_of = [](const Plan& p) { return p.root()->child(0); };

  // The shared-buffer overload borrows the payload; the string_view one
  // copies the input once.
  Plan plan = decode();
  const std::string_view span = leaf_of(plan)->verbatim_items();
  EXPECT_EQ(span, run);
  EXPECT_GE(span.data(), bytes->data());
  EXPECT_LE(span.data() + span.size(), bytes->data() + bytes->size());
  auto copied = algebra::ParsePlan(std::string_view(*bytes));
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(leaf_of(*copied)->verbatim_items(), run);
  EXPECT_NE(leaf_of(*copied)->verbatim_items().data(), span.data());

  // Clone shares the buffer; the copy builds its own items.
  const PlanNodePtr clone = leaf_of(plan)->Clone();
  EXPECT_EQ(clone->verbatim_items().data(), span.data());
  EXPECT_TRUE(clone->Equals(*PlanNode::XmlData(items)));

  // An annotation change keeps the bytes: nothing is built to re-encode.
  const uint64_t before = xml::DomNodesBuilt();
  leaf_of(plan)->annotations().cardinality = 3;
  const std::string annotated = algebra::SerializePlan(plan);
  EXPECT_EQ(xml::DomNodesBuilt(), before);
  EXPECT_EQ(leaf_of(plan)->verbatim_items().data(), span.data());
  EXPECT_NE(annotated.find("<data card=\"3\">" + run + "</data>"),
            std::string::npos);

  // mutable_items() builds, drops the bytes, and re-encodes from DOM.
  Plan edited = decode();
  ItemSet& mutable_items = leaf_of(edited)->mutable_items();
  EXPECT_TRUE(leaf_of(edited)->verbatim_items().empty());
  mutable_items.pop_back();
  items.pop_back();
  EXPECT_EQ(algebra::SerializePlan(edited),
            PlanDocWithData(ItemRun(items)));

  // MorphToData replaces the bytes with the new items.
  Plan morphed = decode();
  leaf_of(morphed)->MorphToData(items);
  EXPECT_TRUE(leaf_of(morphed)->verbatim_items().empty());
  EXPECT_NE(algebra::SerializePlan(morphed).find(
                "<data card=\"2\">" + ItemRun(items) + "</data>"),
            std::string::npos);

  // MorphTo copies another verbatim leaf's items, not its bytes.
  Plan target = decode();
  const Plan source = decode();
  leaf_of(target)->MorphTo(*leaf_of(source));
  EXPECT_TRUE(leaf_of(target)->verbatim_items().empty());
  EXPECT_EQ(leaf_of(source)->verbatim_items(), run);
  EXPECT_EQ(algebra::SerializePlan(target), *bytes);
}

// The streaming body decoders keep the DOM path's exactly-one-root
// guarantee: trailing content after the root element is rejected.
TEST(BodyCodecTest, TrailingContentAfterRootIsRejected) {
  auto ok_items = wire::DecodeItemBody("<r><i/></r>");
  ASSERT_TRUE(ok_items.ok());
  EXPECT_EQ(ok_items->size(), 1u);
  EXPECT_FALSE(wire::DecodeItemBody("<r><i/></r><r/>").ok());
  xml::AttrList attrs;
  EXPECT_TRUE(wire::DecodeAttrBody("<r a=\"1\"/>", &attrs).ok());
  EXPECT_FALSE(wire::DecodeAttrBody("<r a=\"1\"/><r/>", &attrs).ok());
  EXPECT_TRUE(catalog::DigestFromXml("<digest><v o=\"a\" s=\"1\"/></digest>")
                  .ok());
  EXPECT_FALSE(
      catalog::DigestFromXml(
          "<digest><v o=\"a\" s=\"1\"/></digest><digest/>")
          .ok());
  EXPECT_FALSE(
      catalog::CatalogDelta::FromXml("<delta></delta><delta/>").ok());
}

// '+'-prefixed numbers stay accepted (strtoll compatibility) but a '+'
// not followed by a digit stays invalid — "+-5" must not parse as -5.
TEST(NumberParsingTest, PlusSignHandling) {
  int64_t i = 0;
  EXPECT_TRUE(mqp::ParseInt64("+5", &i));
  EXPECT_EQ(i, 5);
  EXPECT_FALSE(mqp::ParseInt64("+-5", &i));
  EXPECT_FALSE(mqp::ParseInt64("+", &i));
  double d = 0;
  EXPECT_TRUE(mqp::ParseDouble("+1.5", &d));
  EXPECT_EQ(d, 1.5);
  EXPECT_TRUE(mqp::ParseDouble("+.5", &d));
  EXPECT_EQ(d, 0.5);
  EXPECT_FALSE(mqp::ParseDouble("+-1.5", &d));
}

// Integer attributes are outside input (ROADMAP item 7). Each one decodes
// at the edge of its field's range; one past it, a negative value for an
// unsigned field, or a non-number rejects the plan, with the same status
// through the streaming and the DOM decoder, instead of wrapping or
// narrowing silently.
TEST(PlanCodecEquivalenceTest, IntegerAttributesAreRangeChecked) {
  const std::string u64_max = "18446744073709551615";
  const std::string u64_over = "18446744073709551616";
  const std::string u32_max = "4294967295";
  const std::string u32_over = "4294967296";
  const std::string int_max = "2147483647";
  const std::string int_min = "-2147483648";
  const std::string int_over = "2147483648";
  const std::string int_under = "-2147483649";
  auto on_url = [](std::string attrs) {
    return [attrs](const std::string& v) {
      return "<mqp><plan><url href=\"h:1\" " + attrs + "\"" + v +
             "\"/></plan></mqp>";
    };
  };
  struct Case {
    std::string key;  // as the status names it
    std::function<std::string(const std::string&)> doc;
    std::vector<std::string> in_range, rejected;
  };
  const std::vector<Case> cases = {
      {"card",
       [](const std::string& v) {
         return "<mqp><plan><data card=\"" + v + "\"/></plan></mqp>";
       },
       {"0", u64_max},
       {u64_over, "-1", "x"}},
      {"bytes", on_url("bytes="), {u64_max}, {u64_over, "-7", "1.5"}},
      {"distinct", on_url("distinct="), {u64_max}, {"-1", u64_over, ""}},
      {"staleness", on_url("staleness="), {int_max, int_min},
       {int_over, int_under, "soon"}},
      {"tk-k", on_url("tk-field=\"p\" tk-k="), {u64_max}, {"-3", u64_over}},
      {"tk-batch", on_url("tk-field=\"p\" tk-batch="), {u64_max},
       {"-1", u64_over}},
      {"tk-cont", on_url("tk-field=\"p\" tk-cont="), {u64_max},
       {"-1", "x"}},
      {"tk-leaf", on_url("tk-field=\"p\" tk-leaf="), {u32_max},
       {u32_over, "-1"}},
      {"tk-bleaf", on_url("tk-field=\"p\" tk-bkey=\"k\" tk-bleaf="),
       {u32_max},
       {u32_over, "-1"}},
      {"n",
       [](const std::string& v) {
         return "<mqp><plan><topn n=\"" + v +
                "\" orderby=\"p\" order=\"asc\"><data/></topn></plan></mqp>";
       },
       {u64_max},
       {u64_over, "-1"}},
      {"priority",
       [](const std::string& v) {
         return "<mqp><policy priority=\"" + v +
                "\" prefer=\"complete\"/><plan><urn name=\"u\"/></plan></mqp>";
       },
       {u32_max},
       {u32_over, "-1", "high"}},
      {"staleness",  // a provenance visit's
       [](const std::string& v) {
         return "<mqp><provenance><visit server=\"s\" time=\"1\" "
                "action=\"forwarded\" staleness=\"" +
                v + "\"/></provenance><plan><urn name=\"u\"/></plan></mqp>";
       },
       {int_max, int_min},
       {int_over, int_under, "x"}},
  };
  auto parse_both = [](const std::string& doc) {
    return std::pair<Result<Plan>, Result<Plan>>{algebra::ParsePlan(doc),
                                                 dom::ParsePlan(doc)};
  };
  for (const Case& c : cases) {
    for (const std::string& v : c.in_range) {
      const std::string doc = c.doc(v);
      auto [streamed, dom] = parse_both(doc);
      ASSERT_TRUE(streamed.ok()) << doc << ": " << streamed.status();
      ASSERT_TRUE(dom.ok()) << doc << ": " << dom.status();
      const std::string encoded = algebra::SerializePlan(*streamed);
      EXPECT_EQ(encoded, dom::SerializePlan(*dom)) << doc;
      EXPECT_NE(encoded.find(c.key + "=\"" + v + "\""), std::string::npos)
          << doc << " re-encoded as " << encoded;
    }
    for (const std::string& v : c.rejected) {
      const std::string doc = c.doc(v);
      auto [streamed, dom] = parse_both(doc);
      EXPECT_FALSE(streamed.ok()) << doc;
      EXPECT_EQ(streamed.status().ToString(), dom.status().ToString())
          << doc;
      EXPECT_NE(streamed.status().message().find(c.key), std::string::npos)
          << doc << ": " << streamed.status();
    }
  }
}

// --- union fold ------------------------------------------------------------------

size_t EquivSeeds(size_t fallback) {
  if (const char* env = std::getenv("MQP_EQUIV_SEEDS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

// One reduction of a decoded union under an evaluation budget, as the
// peer does it: the fold when the union IsFoldableUnion, else Evaluate
// and MorphToData.
struct Reduction {
  bool ok = false;
  uint64_t budget_aborts = 0;
  uint64_t dom_nodes = 0;  // xml::Nodes built while reducing
  engine::internal::BudgetState left;
};

Reduction Reduce(PlanNode* u, engine::LocalStore* store,
                 const engine::EvalLimits& limits) {
  Reduction r;
  const uint64_t aborts = engine::Stats().budget_aborts;
  const uint64_t nodes = xml::DomNodesBuilt();
  {
    const engine::ScopedEvalBudget budget(limits);
    if (u->IsFoldableUnion()) {
      auto inputs = engine::EvaluateUnionInputs(*u, store);
      r.ok = inputs.ok();
      if (r.ok) u->FoldUnion(*inputs);
    } else {
      auto items = engine::Evaluate(*u, store);
      r.ok = items.ok();
      if (r.ok) u->MorphToData(std::move(items).value());
    }
    r.left = engine::internal::Budget();
  }
  r.budget_aborts = engine::Stats().budget_aborts - aborts;
  r.dom_nodes = xml::DomNodesBuilt() - nodes;
  return r;
}

// Random bag unions mixing verbatim leaves, items leaves and local URL
// sub-plans, folded as bytes, against the DOM path: the same decoded plan
// with every data leaf forced through mutable_items(). The fold must
// build no xml::Node and match the DOM path's encoded plan, items,
// cardinality and staleness, and under random row budgets its abort
// outcome, budget_aborts and remaining allowance. Distinct and
// top-k unions must not fold. MQP_EQUIV_SEEDS sets the seed count (CI
// runs 1000).
TEST(UnionFoldTest, FoldMatchesTheDomPathSweep) {
  const std::string self = "10.0.0.9:9020";
  const std::string xpath = engine::LocalStore::CollectionXPath("c");
  size_t folded = 0, aborted = 0;
  for (uint64_t seed = 0; seed < EquivSeeds(100); ++seed) {
    Rng rng(seed + 91000);
    engine::LocalStore store;
    ItemSet local;
    for (uint64_t i = rng.NextBelow(6); i > 0; --i) {
      local.push_back(RandomItem(&rng));
    }
    store.AddCollection("c", local);
    // Input kinds: 0 verbatim data, 1 items data, 2 local URL sub-plan;
    // at least one input stays verbatim.
    const size_t k = 1 + rng.NextBelow(6);
    std::vector<uint64_t> kinds(k);
    for (auto& kind : kinds) kind = rng.NextBelow(3);
    kinds[rng.NextBelow(k)] = 0;
    std::vector<PlanNodePtr> inputs;
    for (uint64_t kind : kinds) {
      if (kind == 2) {
        PlanNodePtr url = PlanNode::Url(self, xpath);
        inputs.push_back(
            rng.NextBool()
                ? url
                : PlanNode::Select(
                      Expr::Compare(algebra::CompareOp::kLt,
                                    Expr::Field("price"),
                                    Expr::Literal(std::to_string(
                                        rng.NextBelow(500)))),
                      url));
        continue;
      }
      ItemSet items;
      for (uint64_t i = 1 + rng.NextBelow(4); i > 0; --i) {
        items.push_back(RandomItem(&rng));
      }
      inputs.push_back(PlanNode::XmlData(std::move(items)));
    }
    const bool distinct = rng.NextBool(0.15);
    PlanNodePtr u = PlanNode::Union(std::move(inputs), distinct);
    const bool topk = rng.NextBool(0.15);
    if (topk) {
      algebra::TopKBound bound;
      bound.order_field = "price";
      bound.k = 3;
      u->annotations().topk = bound;
    }
    if (rng.NextBool()) {
      u->annotations().staleness_minutes =
          static_cast<int>(rng.NextBelow(60));
    }
    Plan plan(PlanNode::Display(self, u));
    plan.set_query_id("q" + std::to_string(seed));
    const net::Payload bytes = net::MakePayload(algebra::SerializePlan(plan));

    auto fold_plan = algebra::ParsePlan(bytes);
    auto dom_plan = algebra::ParsePlan(bytes);
    ASSERT_TRUE(fold_plan.ok() && dom_plan.ok()) << "seed " << seed;
    PlanNode* fold_u = fold_plan->root()->child(0).get();
    PlanNode* dom_u = dom_plan->root()->child(0).get();
    for (size_t i = 0; i < k; ++i) {
      if (kinds[i] == 1) fold_u->child(i)->mutable_items();
    }
    for (PlanNode* leaf : DataLeaves(*dom_plan)) leaf->mutable_items();
    ASSERT_EQ(fold_u->IsFoldableUnion(), !distinct && !topk)
        << "seed " << seed;
    ASSERT_FALSE(dom_u->IsFoldableUnion()) << "seed " << seed;
    if (distinct || topk) continue;  // the DOM path reduces those

    engine::EvalLimits limits;
    if (rng.NextBool(0.6)) limits.max_rows = 1 + rng.NextBelow(40);
    const Reduction fold = Reduce(fold_u, &store, limits);
    const Reduction dom = Reduce(dom_u, &store, limits);
    EXPECT_EQ(fold.dom_nodes, 0u) << "seed " << seed;
    ASSERT_EQ(fold.ok, dom.ok) << "seed " << seed;
    EXPECT_EQ(fold.budget_aborts, dom.budget_aborts) << "seed " << seed;
    EXPECT_EQ(fold.left.exhausted, dom.left.exhausted) << "seed " << seed;
    if (!fold.left.exhausted) {
      // Both charged the same rows (an exhausted budget refuses every
      // later charge, so what was left at the trip is moot).
      EXPECT_EQ(fold.left.rows_left, dom.left.rows_left) << "seed " << seed;
    }
    if (!fold.ok) {
      // All or nothing: an aborted fold leaves the union unreduced.
      EXPECT_EQ(fold.budget_aborts, 1u) << "seed " << seed;
      EXPECT_EQ(fold_u->type(), algebra::OpType::kUnion) << "seed " << seed;
      EXPECT_EQ(algebra::SerializePlan(*fold_plan), *bytes)
          << "seed " << seed;
      ++aborted;
      continue;
    }
    ++folded;
    EXPECT_EQ(algebra::SerializePlan(*fold_plan),
              algebra::SerializePlan(*dom_plan))
        << "seed " << seed;
    EXPECT_EQ(algebra::PlanWireSize(*fold_plan),
              algebra::SerializePlan(*dom_plan).size())
        << "seed " << seed;
    EXPECT_FALSE(fold_u->verbatim_items().empty()) << "seed " << seed;
    EXPECT_EQ(std::as_const(*fold_u).annotations(),
              std::as_const(*dom_u).annotations())
        << "seed " << seed;
    EXPECT_EQ(fold_u->item_count(), dom_u->items().size()) << "seed " << seed;
    ASSERT_EQ(fold_u->items().size(), dom_u->items().size())
        << "seed " << seed;
    for (size_t i = 0; i < dom_u->items().size(); ++i) {
      EXPECT_TRUE(fold_u->items()[i]->Equals(*dom_u->items()[i]))
          << "seed " << seed << " item " << i;
    }
  }
  // Both outcomes occur.
  EXPECT_GT(folded, 0u);
  EXPECT_GT(aborted, 0u);
}

// The decoder ignores whitespace between elements: the compact form with
// a line break and indentation after every tag still decodes to the plan.
TEST(PlanCodecEquivalenceTest, IndentedSerializationStillReparses) {
  const Plan plan = RandomPlan(7);
  const std::string compact = algebra::SerializePlan(plan);
  std::string pretty;
  for (size_t i = 0; i < compact.size(); ++i) {
    pretty += compact[i];
    // Text and attribute values escape '<' and '>', so "><" only ever
    // separates two tags.
    if (compact[i] == '>' && i + 1 < compact.size() && compact[i + 1] == '<') {
      pretty += "\n  ";
    }
  }
  ASSERT_NE(pretty, compact);
  auto parsed = algebra::ParsePlan(pretty);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(algebra::SerializePlan(*parsed), compact);
}

}  // namespace
}  // namespace mqp
