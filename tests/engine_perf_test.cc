// Randomized equivalence suite for the zero-copy engine (PR 5).
//
// Every optimized path is compared against the behavior it replaced over
// 1000 seeded inputs:
//   * shared-item LocalStore vs. the cloning store in tests/support,
//   * StructuralHash-keyed distinct/difference vs. serialize-keyed
//     references implemented here,
//   * accessor-keyed hash join vs. the old string-keyed algorithm,
//   * bounded-heap top-N vs. stable_sort + truncate (duplicate-key
//     tie-break determinism included),
// plus the PR's acceptance assert: a filter query over a local collection
// performs zero deep clones, zero xml::Serialize calls and zero DOM node
// construction on the evaluation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "algebra/plan.h"
#include "common/rng.h"
#include "engine/field_accessor.h"
#include "engine/local_store.h"
#include "engine/operator.h"
#include "support/cloning_store.h"
#include "xml/writer.h"
#include "xml/xpath.h"

namespace mqp::engine {
namespace {

using algebra::Expr;
using algebra::Item;
using algebra::ItemSet;
using algebra::PlanNode;
using algebra::PlanNodePtr;

std::vector<std::string> SerializeAll(const ItemSet& items) {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const Item& item : items) {
    out.push_back(xml::Serialize(*item));
  }
  return out;
}

// A random item: usually a flat <cd>, sometimes nested, occasionally the
// pathological shapes the store must handle (an element named "data" with
// an id attribute; an element named "id" that shadows the attribute form
// of the collection predicate; multiple text runs).
Item RandomItem(Rng* rng) {
  const uint64_t shape = rng->NextBelow(10);
  if (shape == 0) {
    auto n = xml::Node::Element("data");
    n->SetAttr("id", "x" + std::to_string(rng->NextBelow(3)));
    n->AddElementWithText("inner", std::to_string(rng->NextBelow(5)));
    return Item(n.release());
  }
  if (shape == 1) {
    return Item(
        xml::Node::ElementWithText("id", std::to_string(rng->NextBelow(9)))
            .release());
  }
  auto n = xml::Node::Element("cd");
  n->AddElementWithText("title", rng->NextWord(4));
  n->AddElementWithText("price", std::to_string(rng->NextBelow(30)));
  if (rng->NextBool(0.3)) {
    auto* info = n->AddElement("info");
    info->AddElementWithText("price", std::to_string(rng->NextBelow(30)));
    info->AddElementWithText("genre", rng->NextWord(3));
  }
  if (rng->NextBool(0.15)) {
    n->AddText("loose");
    n->AddElementWithText("title", rng->NextWord(4));
  }
  return Item(n.release());
}

ItemSet RandomItems(Rng* rng, size_t max_n) {
  ItemSet out;
  const size_t n = rng->NextBelow(max_n + 1);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(RandomItem(rng));
  }
  return out;
}

TEST(EnginePerfTest, SharedStoreMatchesCloningReference) {
  const std::vector<std::string> id_pool = {
      "c0", "c1", "245", "0245", "a]b", "it's", "with space",
      "replica:10.0.0.5:9020"};
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    LocalStore store;
    dom::CloningStore cloning;
    std::vector<std::string> ids;
    const size_t n_colls = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n_colls; ++i) {
      const std::string& id = rng.Pick(id_pool);
      const ItemSet items = RandomItems(&rng, 8);
      store.AddCollection(id, items);
      cloning.AddCollection(id, items);
      ids.push_back(id);
    }
    std::vector<std::string> xpaths = {
        "",
        "/data",
        "data",
        "/*",
        "//cd",
        "/data/cd[price<15]",
        "/data/cd/title",
        "/data/cd[2]",
        "//data",
        "/data/cd/info",
        "/data[zz=1]",
        "/data[id=5]",   // may be answered by an <id> element item
        "/data[@id=5]",
    };
    for (const std::string& id : ids) {
      xpaths.push_back(LocalStore::CollectionXPath(id));
      xpaths.push_back(LocalStore::CollectionXPath(id) + "/cd[price<12]");
      xpaths.push_back(LocalStore::CollectionXPath(id) + "/cd/title");
      xpaths.push_back(LocalStore::CollectionXPath(id) + "//price");
      xpaths.push_back(LocalStore::CollectionXPath(id) + "/cd[3]");
      xpaths.push_back(LocalStore::CollectionXPath(id) + "/id");
      xpaths.push_back(LocalStore::CollectionXPath(id) + "/data");
      xpaths.push_back(LocalStore::CollectionXPath(id) + "/@id");
      xpaths.push_back(LocalStore::CollectionXPath(id) + "/cd/@x");
      if (id.find('\'') == std::string::npos &&
          id.find(' ') == std::string::npos && id.find(']') == std::string::npos) {
        xpaths.push_back("/data[id=" + id + "]");        // legacy bare form
        xpaths.push_back("/data[id=" + id + "]/cd");
      }
    }
    const std::string& xpath = xpaths[rng.NextBelow(xpaths.size())];
    auto fast = store.Fetch("", xpath);
    auto reference = cloning.Fetch(xpath);
    ASSERT_EQ(fast.ok(), reference.ok()) << "seed " << seed << " " << xpath;
    if (!fast.ok()) continue;
    ASSERT_EQ(SerializeAll(*fast), SerializeAll(*reference))
        << "seed " << seed << " xpath " << xpath;
  }
}

TEST(EnginePerfTest, HashDistinctMatchesSerializeReference) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    // Small pools force structural duplicates (shared *and* deep-equal
    // separate nodes).
    ItemSet pool = RandomItems(&rng, 6);
    if (pool.empty()) continue;
    std::vector<PlanNodePtr> inputs;
    ItemSet concatenated;
    const size_t n_inputs = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < n_inputs; ++i) {
      ItemSet part;
      const size_t n = rng.NextBelow(10);
      for (size_t j = 0; j < n; ++j) {
        const Item& picked = rng.Pick(pool);
        part.push_back(rng.NextBool() ? picked
                                      : algebra::MakeItem(*picked));
      }
      concatenated.insert(concatenated.end(), part.begin(), part.end());
      inputs.push_back(PlanNode::XmlData(std::move(part)));
    }
    auto got = Evaluate(*PlanNode::Union(std::move(inputs), true));
    ASSERT_TRUE(got.ok()) << got.status();
    // Reference: the old serialize-keyed first-occurrence dedup.
    ItemSet expect;
    std::unordered_set<std::string> seen;
    for (const Item& item : concatenated) {
      if (seen.insert(xml::Serialize(*item)).second) expect.push_back(item);
    }
    ASSERT_EQ(SerializeAll(*got), SerializeAll(expect)) << "seed " << seed;
  }
}

TEST(EnginePerfTest, HashDifferenceMatchesSerializeReference) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    ItemSet pool = RandomItems(&rng, 5);
    if (pool.empty()) continue;
    auto draw = [&](size_t max_n) {
      ItemSet out;
      const size_t n = rng.NextBelow(max_n);
      for (size_t i = 0; i < n; ++i) {
        const Item& picked = rng.Pick(pool);
        out.push_back(rng.NextBool() ? picked : algebra::MakeItem(*picked));
      }
      return out;
    };
    ItemSet left = draw(12);
    ItemSet right = draw(8);
    auto got = Evaluate(*PlanNode::Difference(PlanNode::XmlData(left),
                                              PlanNode::XmlData(right)));
    ASSERT_TRUE(got.ok());
    // Reference: the old multiset subtraction on serialized keys.
    std::unordered_map<std::string, int> counts;
    for (const Item& item : right) counts[xml::Serialize(*item)]++;
    ItemSet expect;
    for (const Item& item : left) {
      auto it = counts.find(xml::Serialize(*item));
      if (it != counts.end() && it->second > 0) {
        --it->second;
        continue;
      }
      expect.push_back(item);
    }
    ASSERT_EQ(SerializeAll(*got), SerializeAll(expect)) << "seed " << seed;
  }
}

// The old join key extraction: first child element match, then the
// expression machinery.
std::optional<std::string> ReferenceFieldOf(const xml::Node& item,
                                            const std::string& path) {
  const xml::Node* c = item.Child(path);
  if (c != nullptr) return c->InnerText();
  auto v = Expr::Field(path)->EvalValue(item);
  if (!v) return std::nullopt;
  return v->text;
}

TEST(EnginePerfTest, HashJoinMatchesStringKeyedReference) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const bool outer = rng.NextBool(0.4);
    const bool nested_key = rng.NextBool(0.25);
    auto make_side = [&](const char* elem, const char* key_field,
                         size_t max_n) {
      ItemSet out;
      const size_t n = rng.NextBelow(max_n);
      for (size_t i = 0; i < n; ++i) {
        auto item = xml::Node::Element(elem);
        if (rng.NextBool(0.85)) {  // some items lack the key entirely
          const std::string key = "k" + std::to_string(rng.NextBelow(4));
          if (nested_key) {
            item->AddElement("wrap")->AddElementWithText(key_field, key);
          } else {
            item->AddElementWithText(key_field, key);
          }
        }
        item->AddElementWithText("v", std::to_string(i));
        out.push_back(Item(item.release()));
      }
      return out;
    };
    const std::string lpath = nested_key ? "wrap/lk" : "lk";
    const std::string rpath = nested_key ? "wrap/rk" : "rk";
    ItemSet left = make_side("l", "lk", 10);
    ItemSet right = make_side("r", "rk", 10);
    auto cond = algebra::JoinEq(lpath, rpath);
    auto plan = outer ? PlanNode::LeftOuterJoin(cond, PlanNode::XmlData(left),
                                                PlanNode::XmlData(right))
                      : PlanNode::Join(cond, PlanNode::XmlData(left),
                                       PlanNode::XmlData(right));
    auto got = Evaluate(*plan);
    ASSERT_TRUE(got.ok());
    // Reference: the old string-keyed hash join, including its output
    // order (probe order x build order) and outer pass-through.
    std::unordered_map<std::string, std::vector<size_t>> hash;
    for (size_t i = 0; i < right.size(); ++i) {
      auto key = ReferenceFieldOf(*right[i], rpath);
      if (key) hash[*key].push_back(i);
    }
    std::vector<std::string> expect;
    for (const Item& l : left) {
      auto key = ReferenceFieldOf(*l, lpath);
      std::vector<size_t> matches;
      if (key) {
        auto it = hash.find(*key);
        if (it != hash.end()) matches = it->second;
      }
      if (outer && matches.empty()) {
        expect.push_back(xml::Serialize(*l));
        continue;
      }
      for (size_t i : matches) {
        // MergeItems is shared by both sides of the comparison; rebuild
        // its output through the public plan path instead of reimplementing.
        auto one = Evaluate(*PlanNode::Join(algebra::JoinEq(lpath, rpath),
                                            PlanNode::XmlData({l}),
                                            PlanNode::XmlData({right[i]})));
        ASSERT_TRUE(one.ok());
        ASSERT_EQ(one->size(), 1u);
        expect.push_back(xml::Serialize(*(*one)[0]));
      }
    }
    ASSERT_EQ(SerializeAll(*got), expect) << "seed " << seed;
  }
}

TEST(EnginePerfTest, HeapTopNMatchesStableSortReference) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    // Few distinct keys: duplicate-key tie-breaks dominate the test.
    ItemSet items;
    const size_t n = rng.NextBelow(20);
    for (size_t i = 0; i < n; ++i) {
      auto item = xml::Node::Element("x");
      if (rng.NextBool(0.9)) {
        item->AddElementWithText(
            "price", std::to_string(rng.NextBelow(5) * (rng.NextBool() ? 1 : 10)));
      }
      item->AddElementWithText("seq", std::to_string(i));
      items.push_back(Item(item.release()));
    }
    const uint64_t limit = rng.NextBelow(n + 3);
    const bool ascending = rng.NextBool();
    auto got = Evaluate(
        *PlanNode::TopN(limit, "price", ascending, PlanNode::XmlData(items)));
    ASSERT_TRUE(got.ok());
    // Reference: the old materialize / stable_sort / truncate.
    ItemSet expect = items;
    auto key = [](const Item& item) {
      return algebra::Value{
          ReferenceFieldOf(*item, "price").value_or("")};
    };
    std::stable_sort(expect.begin(), expect.end(),
                     [&](const Item& a, const Item& b) {
                       const int cmp = key(a).Compare(key(b));
                       return ascending ? cmp < 0 : cmp > 0;
                     });
    if (expect.size() > limit) expect.resize(limit);
    ASSERT_EQ(SerializeAll(*got), SerializeAll(expect))
        << "seed " << seed << " limit " << limit << " asc " << ascending;
  }
}

TEST(EnginePerfTest, FieldAccessorCompilesTheExpectedPaths) {
  // Direct walk for plain chains and trailing attrs; XPath fallback for
  // anything the walk can't express.
  EXPECT_TRUE(FieldAccessor("price").compiled());
  EXPECT_TRUE(FieldAccessor("seller/city").compiled());
  EXPECT_TRUE(FieldAccessor("seller/@id").compiled());
  EXPECT_TRUE(FieldAccessor("@id").compiled());
  EXPECT_FALSE(FieldAccessor("a[b=1]").compiled());
  EXPECT_FALSE(FieldAccessor("/a").compiled());
  EXPECT_FALSE(FieldAccessor("a//b").compiled());
  EXPECT_FALSE(FieldAccessor("*").compiled());
  EXPECT_FALSE(FieldAccessor("a/@x/b").compiled());
}

TEST(EnginePerfTest, FieldAccessorMatchesExprField) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const Item item = RandomItem(&rng);
    for (const std::string path :
         {"title", "price", "info/price", "info/genre", "missing",
          "info/price/deep", "@id", "inner", "info/", "/title", "info//x",
          ""}) {
      FieldAccessor acc(path);
      auto got = acc.Eval(*item);
      auto expect = Expr::Field(path)->EvalValue(*item);
      ASSERT_EQ(got.has_value(), expect.has_value())
          << "seed " << seed << " path " << path;
      if (got) {
        EXPECT_EQ(std::string(*got), expect->text)
            << "seed " << seed << " path " << path;
      }
    }
  }
}

TEST(EnginePerfTest, FilterQueryPerformsZeroClonesAndZeroSerializes) {
  // The PR's acceptance criterion, asserted via the new counters: a
  // filter query over a local collection of N items runs with zero deep
  // clones, zero xml::Serialize calls and zero DOM nodes built.
  LocalStore store;
  ItemSet items;
  for (int i = 0; i < 200; ++i) {
    auto item = xml::Node::Element("cd");
    item->AddElementWithText("title", "t" + std::to_string(i));
    item->AddElementWithText("price", std::to_string(i % 40));
    items.push_back(Item(item.release()));
  }
  store.AddCollection("c0", items);
  auto plan = PlanNode::Select(
      algebra::FieldLess("price", "10"),
      PlanNode::Url("local:9020", LocalStore::CollectionXPath("c0")));

  (void)Evaluate(*plan, &store);  // warm: first fetch parses the xpath

  const uint64_t cloned_before = Stats().items_cloned;
  const uint64_t serializes_before = xml::SerializeCalls();
  const uint64_t nodes_before = xml::DomNodesBuilt();
  auto r = Evaluate(*plan, &store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 50u);
  EXPECT_EQ(Stats().items_cloned - cloned_before, 0u);
  EXPECT_EQ(xml::SerializeCalls() - serializes_before, 0u);
  EXPECT_EQ(xml::DomNodesBuilt() - nodes_before, 0u);
  // The results are the very store items, not copies.
  EXPECT_EQ((*r)[0].get(), items[0].get());
}

TEST(EnginePerfTest, DistinctUnionOverSharedItemsBuildsNoNodes) {
  // Set semantics on the zero-copy path: distinct over two overlapping
  // shared collections dedups without serializing or cloning anything.
  LocalStore store;
  ItemSet items;
  for (int i = 0; i < 50; ++i) {
    items.push_back(Item(
        xml::Node::ElementWithText("v", std::to_string(i % 20)).release()));
  }
  store.AddCollection("a", items);
  store.AddCollection("b", items);
  auto plan = PlanNode::Union(
      {PlanNode::Url("local:9020", LocalStore::CollectionXPath("a")),
       PlanNode::Url("local:9020", LocalStore::CollectionXPath("b"))},
      /*distinct=*/true);
  const uint64_t cloned_before = Stats().items_cloned;
  const uint64_t serializes_before = xml::SerializeCalls();
  const uint64_t probes_before = Stats().structural_hash_probes;
  auto r = Evaluate(*plan, &store);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 20u);
  EXPECT_EQ(Stats().items_cloned - cloned_before, 0u);
  EXPECT_EQ(xml::SerializeCalls() - serializes_before, 0u);
  EXPECT_EQ(Stats().structural_hash_probes - probes_before, 100u);
}

TEST(EnginePerfTest, CachesSurviveUnrelatedTreeConstruction) {
  // The point of the marked-subtree epoch: building fresh trees (wire
  // decode, result materialization) must not flush the hash/size caches
  // of stored immutable items — only mutating a cached subtree does.
  auto cached = xml::Node::Element("cd");
  cached->AddElementWithText("price", "7");
  const uint64_t h1 = xml::StructuralHash(*cached);
  (void)xml::SerializedSize(*cached);
  const uint64_t epoch = xml::DomMutationEpoch();
  // Unrelated construction: no epoch movement, caches stay valid.
  auto fresh = xml::Node::Element("noise");
  for (int i = 0; i < 10; ++i) {
    fresh->AddElementWithText("x", std::to_string(i));
  }
  fresh->SetAttr("a", "b");
  EXPECT_EQ(xml::DomMutationEpoch(), epoch);
  EXPECT_EQ(xml::StructuralHash(*cached), h1);
  // Mutating inside the cached subtree bumps and recomputes.
  cached->mutable_children()[0]->AddText("9");
  EXPECT_GT(xml::DomMutationEpoch(), epoch);
  EXPECT_NE(xml::StructuralHash(*cached), h1);
}

TEST(EnginePerfTest, StructuralHashConsistentWithEquality) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const Item a = RandomItem(&rng);
    const Item b = RandomItem(&rng);
    const Item a_clone = algebra::MakeItem(*a);
    EXPECT_EQ(xml::StructuralHash(*a), xml::StructuralHash(*a_clone));
    EXPECT_TRUE(a->StructurallyEquals(*a_clone));
    if (a->StructurallyEquals(*b)) {
      EXPECT_EQ(xml::StructuralHash(*a), xml::StructuralHash(*b));
    }
  }
}

}  // namespace
}  // namespace mqp::engine
