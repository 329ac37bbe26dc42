#include <gtest/gtest.h>

#include "support/dom_parser.h"
#include "xml/xpath.h"

namespace mqp::xml {
namespace {

// Parses `expr` (which must parse) and evaluates it against `root`.
std::vector<const Node*> EvalXPath(std::string_view expr, const Node& root) {
  auto xp = XPath::Parse(expr);
  EXPECT_TRUE(xp.ok()) << expr << ": " << xp.status();
  return xp.ok() ? xp->Eval(root) : std::vector<const Node*>{};
}

std::unique_ptr<Node> Doc() {
  auto doc = Parse(R"(
    <store>
      <data id="245">
        <item><name>putter</name><price>45</price></item>
        <item><name>driver</name><price>120</price></item>
      </data>
      <data id="246">
        <item kind="cd"><name>album</name><price>8</price></item>
      </data>
      <misc><deep><item><name>hidden</name></item></deep></misc>
    </store>)");
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

TEST(XPathTest, AbsoluteChildPath) {
  auto doc = Doc();
  auto r = EvalXPath("/store/data", *doc);
  EXPECT_EQ(r.size(), 2u);
}

TEST(XPathTest, RootNameMustMatch) {
  auto doc = Doc();
  EXPECT_TRUE(EvalXPath("/nope/data", *doc).empty());
}

TEST(XPathTest, AttributeEqualityPredicate) {
  auto doc = Doc();
  auto r = EvalXPath("/store/data[@id='245']", *doc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->AttrOr("id", ""), "245");
}

TEST(XPathTest, BareNumericAttrPredicate) {
  // The paper writes collection ids as /data[id=245]; a child-element test
  // with no matching child falls back to the attribute of the same name.
  auto doc = Doc();
  auto r = EvalXPath("/store/data[id=246]", *doc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->AttrOr("id", ""), "246");
}

TEST(XPathTest, ChildElementShadowsAttributeInPredicate) {
  auto doc = Parse("<r><e id=\"attr\"><id>elem</id></e></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(EvalXPath("/r/e[id='elem']", **doc).size(), 1u);
  EXPECT_TRUE(EvalXPath("/r/e[id='attr']", **doc).empty());
  EXPECT_EQ(EvalXPath("/r/e[@id='attr']", **doc).size(), 1u);
}

TEST(XPathTest, ChildElementComparison) {
  auto doc = Doc();
  auto r = EvalXPath("/store/data/item[price<50]", *doc);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0]->ChildText("name"), "putter");
  EXPECT_EQ(r[1]->ChildText("name"), "album");
}

TEST(XPathTest, NumericNotLexicographicComparison) {
  auto doc = Doc();
  // 120 < 50 lexicographically ("1" < "5") but not numerically.
  auto r = EvalXPath("/store/data/item[price>100]", *doc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->ChildText("name"), "driver");
}

TEST(XPathTest, DescendantAxis) {
  auto doc = Doc();
  EXPECT_EQ(EvalXPath("//item", *doc).size(), 4u);
  EXPECT_EQ(EvalXPath("//item[name='hidden']", *doc).size(), 1u);
}

TEST(XPathTest, Wildcard) {
  auto doc = Doc();
  EXPECT_EQ(EvalXPath("/store/*", *doc).size(), 3u);
}

TEST(XPathTest, PositionPredicate) {
  auto doc = Doc();
  auto r = EvalXPath("/store/data[1]", *doc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->AttrOr("id", ""), "245");
  r = EvalXPath("/store/data[2]", *doc);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->AttrOr("id", ""), "246");
}

TEST(XPathTest, ExistencePredicate) {
  auto doc = Doc();
  EXPECT_EQ(EvalXPath("//item[@kind]", *doc).size(), 1u);
  EXPECT_EQ(EvalXPath("//item[price]", *doc).size(), 3u);
}

TEST(XPathTest, MultiplePredicatesConjoin) {
  auto doc = Doc();
  EXPECT_EQ(EvalXPath("//item[price][name='putter']", *doc).size(), 1u);
  EXPECT_TRUE(EvalXPath("//item[price][name='hidden']", *doc).empty());
}

TEST(XPathTest, EvalStringsAttributesAndText) {
  auto doc = Doc();
  auto xp = XPath::Parse("/store/data/@id");
  ASSERT_TRUE(xp.ok()) << xp.status();
  EXPECT_TRUE(xp->selects_attribute());
  auto vals = xp->EvalStrings(*doc);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], "245");

  auto xp2 = XPath::Parse("//item/name");
  ASSERT_TRUE(xp2.ok());
  auto names = xp2->EvalStrings(*doc);
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[3], "hidden");
}

TEST(XPathTest, RelativePathStartsAtChildren) {
  auto doc = Doc();
  // Relative paths use context-node semantics: "data" selects the root's
  // <data> children, not the root itself.
  auto xp = XPath::Parse("data");
  ASSERT_TRUE(xp.ok());
  EXPECT_EQ(xp->Eval(*doc).size(), 2u);
  auto xp2 = XPath::Parse("data/item");
  ASSERT_TRUE(xp2.ok());
  EXPECT_EQ(xp2->Eval(*doc).size(), 3u);
  // "store/data" relative to the <store> element matches nothing (no
  // <store> child inside <store>).
  auto xp3 = XPath::Parse("store/data");
  ASSERT_TRUE(xp3.ok());
  EXPECT_TRUE(xp3->Eval(*doc).empty());
}

TEST(XPathTest, SelfTextPredicate) {
  auto doc = Parse("<l><t>abc</t><t>xyz</t></l>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(EvalXPath("/l/t[.='xyz']", **doc).size(), 1u);
}

TEST(XPathTest, ParseErrors) {
  EXPECT_FALSE(XPath::Parse("").ok());
  EXPECT_FALSE(XPath::Parse("/").ok());
  EXPECT_FALSE(XPath::Parse("/a[").ok());
  EXPECT_FALSE(XPath::Parse("/a[]").ok());
  EXPECT_FALSE(XPath::Parse("/a[x~1]").ok());
  EXPECT_FALSE(XPath::Parse("/@a/b").ok());  // attribute step must be final
  EXPECT_FALSE(XPath::Parse("/a//").ok());
}

TEST(XPathTest, QuotedLiteralWithSpaces) {
  auto doc = Parse("<l><t><n>two words</n></t></l>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(EvalXPath("/l/t[n='two words']", **doc).size(), 1u);
}

}  // namespace
}  // namespace mqp::xml
