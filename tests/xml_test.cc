#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/dom_parser.h"
#include "xml/node.h"
#include "xml/writer.h"

namespace mqp::xml {
namespace {

TEST(NodeTest, ElementConstruction) {
  auto n = Node::Element("item");
  EXPECT_TRUE(n->is_element());
  EXPECT_EQ(n->name(), "item");
  EXPECT_TRUE(n->children().empty());
}

TEST(NodeTest, AttributesPreserveOrderAndReplace) {
  auto n = Node::Element("e");
  n->SetAttr("b", "1");
  n->SetAttr("a", "2");
  n->SetAttr("b", "3");
  ASSERT_EQ(n->attrs().size(), 2u);
  EXPECT_EQ(n->attrs()[0].first, "b");
  EXPECT_EQ(*n->Attr("b"), "3");
  EXPECT_EQ(*n->Attr("a"), "2");
  EXPECT_FALSE(n->Attr("c").has_value());
  EXPECT_EQ(n->AttrOr("c", "dflt"), "dflt");
}

TEST(NodeTest, ChildNavigation) {
  auto n = Node::Element("items");
  n->AddElementWithText("a", "1");
  n->AddElementWithText("b", "2");
  n->AddElementWithText("a", "3");
  EXPECT_EQ(n->Child("a")->InnerText(), "1");
  EXPECT_EQ(n->Children("a").size(), 2u);
  EXPECT_EQ(n->Children("*").size(), 3u);
  EXPECT_EQ(n->ChildText("b"), "2");
  EXPECT_EQ(n->ChildText("missing"), "");
}

TEST(NodeTest, InnerTextConcatenatesDescendants) {
  auto n = Node::Element("p");
  n->AddText("hello ");
  n->AddElementWithText("b", "world");
  EXPECT_EQ(n->InnerText(), "hello world");
}

TEST(NodeTest, CloneIsDeepAndEqual) {
  auto n = Node::Element("root");
  n->SetAttr("k", "v");
  n->AddElementWithText("c", "text");
  auto clone = n->Clone();
  EXPECT_TRUE(n->Equals(*clone));
  clone->Child("c")->mutable_children()[0]->set_text("changed");
  EXPECT_FALSE(n->Equals(*clone));
  EXPECT_EQ(n->ChildText("c"), "text");
}

TEST(ParserTest, SimpleDocument) {
  auto doc = Parse("<root><child attr=\"x\">text</child></root>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->name(), "root");
  const Node* child = (*doc)->Child("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->AttrOr("attr", ""), "x");
  EXPECT_EQ(child->InnerText(), "text");
}

TEST(ParserTest, SelfClosingAndMixedQuotes) {
  auto doc = Parse("<a x='1' y=\"2\"><b/><c/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->Children("*").size(), 2u);
  EXPECT_EQ((*doc)->AttrOr("x", ""), "1");
  EXPECT_EQ((*doc)->AttrOr("y", ""), "2");
}

TEST(ParserTest, EntitiesDecoded) {
  auto doc = Parse("<t a=\"&lt;&amp;&gt;&quot;&apos;\">&lt;x&gt; &#65;&#x42;</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->AttrOr("a", ""), "<&>\"'");
  EXPECT_EQ((*doc)->InnerText(), "<x> AB");
}

TEST(ParserTest, CommentsPIsDoctypeSkipped) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?><!DOCTYPE root [<!ENTITY x \"y\">]>"
      "<!-- hi --><root><!-- inner --><a/><?pi data?></root>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->Children("*").size(), 1u);
}

TEST(ParserTest, CdataPreserved) {
  auto doc = Parse("<t><![CDATA[a < b & c]]></t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->InnerText(), "a < b & c");
}

TEST(ParserTest, NestedSameName) {
  auto doc = Parse("<d><d><d>deep</d></d></d>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->Child("d")->Child("d")->InnerText(), "deep");
}

TEST(ParserTest, ErrorsReported) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("<a>").ok());
  EXPECT_FALSE(Parse("<a></b>").ok());
  EXPECT_FALSE(Parse("<a b=></a>").ok());
  EXPECT_FALSE(Parse("<a>&bogus;</a>").ok());
  EXPECT_FALSE(Parse("<a/><b/>").ok());  // two roots for Parse
  EXPECT_FALSE(Parse("text only").ok());
}

TEST(ParserTest, ForestAllowsMultipleRoots) {
  auto forest = ParseForest("<a/><b>x</b><c/>");
  ASSERT_TRUE(forest.ok()) << forest.status();
  ASSERT_EQ(forest->size(), 3u);
  EXPECT_EQ((*forest)[1]->InnerText(), "x");
}

TEST(ParserTest, ForestAllowsEmpty) {
  auto forest = ParseForest("  ");
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(forest->empty());
}

TEST(WriterTest, EscapesSpecials) {
  auto n = Node::Element("t");
  n->SetAttr("a", "x\"<>&'");
  n->AddText("1 < 2 & 3 > 2");
  const std::string s = Serialize(*n);
  EXPECT_EQ(s,
            "<t a=\"x&quot;&lt;&gt;&amp;&apos;\">1 &lt; 2 &amp; 3 &gt; 2</t>");
}

TEST(WriterTest, SerializedSizeMatchesActual) {
  auto n = Node::Element("root");
  n->SetAttr("k", "va<l&ue");
  auto* c = n->AddElement("child");
  c->AddText("some <text> & more");
  n->AddElement("empty");
  EXPECT_EQ(SerializedSize(*n), Serialize(*n).size());
}

// Round-trip property: parse(serialize(t)) == t for random trees.
class XmlRoundTrip : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<Node> RandomTree(Rng* rng, int depth) {
  auto n = Node::Element("n" + std::to_string(rng->NextBelow(5)));
  const uint64_t attrs = rng->NextBelow(3);
  for (uint64_t i = 0; i < attrs; ++i) {
    n->SetAttr("a" + std::to_string(i),
               rng->NextWord(3) + "<&\"'" + rng->NextWord(2));
  }
  if (depth <= 0) return n;
  const uint64_t kids = rng->NextBelow(4);
  bool last_was_text = false;
  for (uint64_t i = 0; i < kids; ++i) {
    // Adjacent text nodes merge on re-parse (the serialized form cannot
    // distinguish them), so never generate two in a row.
    if (!last_was_text && rng->NextBool(0.3)) {
      n->AddText(rng->NextWord(4) + "&<" + rng->NextWord(2));
      last_was_text = true;
    } else {
      n->AddChild(RandomTree(rng, depth - 1));
      last_was_text = false;
    }
  }
  return n;
}

TEST_P(XmlRoundTrip, ParseSerializeIdentity) {
  Rng rng(GetParam());
  auto tree = RandomTree(&rng, 4);
  const std::string text = Serialize(*tree);
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  EXPECT_TRUE(tree->Equals(**parsed)) << text;
  EXPECT_EQ(SerializedSize(*tree), text.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTrip,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace mqp::xml
