// Randomized property tests for indexed catalog resolution.
//
// The AreaIndex must find every live entry overlapping a request, as a
// brute-force Overlaps scan does, through any Add/Remove history. The
// incremental catalog state and the binding cache must be invisible: for
// any hierarchy, catalog content, mutation history (server departures,
// exact removals — the gossip-expiry projection path) and request area,
// ResolveArea must return the binding a catalog rebuilt from scratch with
// the same content returns, and a cached re-resolution must return it
// again. Also pins PathInterner interval semantics against the
// string-compare reference and the incremental entries() snapshot
// against a shadow model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/area_index.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "ns/path_interner.h"

namespace mqp::catalog {
namespace {

using ns::CategoryPath;
using ns::InterestArea;
using ns::InterestCell;
using ns::PathId;
using ns::PathInterner;

// --- generators ----------------------------------------------------------------

// A small random label alphabet keeps collision (shared prefixes,
// ancestor chains) likely, which is where index bugs would hide.
std::string RandomLabel(Rng* rng) {
  static const char* kLabels[] = {"a", "b", "c", "d", "e"};
  return kLabels[rng->NextBelow(5)];
}

CategoryPath RandomPath(Rng* rng, size_t max_depth) {
  const size_t depth = rng->NextBelow(max_depth + 1);  // 0 = top
  std::vector<std::string> segs;
  segs.reserve(depth);
  for (size_t i = 0; i < depth; ++i) segs.push_back(RandomLabel(rng));
  return CategoryPath(std::move(segs));
}

InterestCell RandomCell(Rng* rng, size_t dims, size_t max_depth) {
  std::vector<CategoryPath> coords;
  coords.reserve(dims);
  for (size_t d = 0; d < dims; ++d) coords.push_back(RandomPath(rng, max_depth));
  return InterestCell(std::move(coords));
}

InterestArea RandomArea(Rng* rng, size_t dims, size_t max_depth) {
  InterestArea area;
  const size_t cells = 1 + rng->NextBelow(3);
  for (size_t c = 0; c < cells; ++c) {
    area.AddCell(RandomCell(rng, dims, max_depth));
  }
  return area;
}

IndexEntry RandomEntry(Rng* rng, size_t dims) {
  IndexEntry e;
  e.level = rng->NextBool(0.3) ? HoldingLevel::kIndex : HoldingLevel::kBase;
  e.area = RandomArea(rng, dims, 3);
  e.server = "10.0.0." + std::to_string(rng->NextBelow(8)) + ":9020";
  if (e.level == HoldingLevel::kBase && rng->NextBool(0.8)) {
    e.xpath = "/data[id=c" + std::to_string(rng->NextBelow(4)) + "]";
  }
  e.delay_minutes = rng->NextBool(0.25) ? 15 * (1 + rng->NextBelow(3)) : 0;
  return e;
}

bool SameBinding(const Binding& a, const Binding& b) {
  return a.urn == b.urn && a.dimension_fields == b.dimension_fields &&
         a.alternatives == b.alternatives;
}

// Shadow of the pre-index entry storage: a plain vector with the same
// dedup/removal semantics, for checking the incremental entries() view.
struct ShadowEntries {
  std::vector<IndexEntry> entries;

  void Add(const IndexEntry& e) {
    for (const auto& x : entries) {
      if (x == e) return;
    }
    entries.push_back(e);
  }
  void RemoveServer(const std::string& server) {
    std::erase_if(entries,
                  [&](const IndexEntry& e) { return e.server == server; });
  }
  bool Remove(const IndexEntry& e) {
    const size_t before = entries.size();
    std::erase_if(entries, [&](const IndexEntry& x) { return x == e; });
    return entries.size() != before;
  }
};

// --- the AreaIndex property ------------------------------------------------------

// One seeded Add/Remove history over a small id space (ids are reused
// once removed), with areas of 1-3 dimensions, several cells and
// wildcard coordinates over a five-label alphabet (shared prefixes).
// Probes interleave with the adds, so the interners grow between them,
// and now and then the index is replaced by a copy of itself, the source
// destroyed. Every probe must return each live id whose area overlaps
// the request (found by a brute-force scan), no id twice and no id that
// is not live. Returns the number of probes made.
size_t RunIndexCase(uint64_t seed) {
  Rng rng(seed);
  const size_t max_dims = 1 + rng.NextBelow(3);
  auto random_area = [&] {
    // Mostly one arity per history; a mixed-arity minority exercises the
    // per-arity groups.
    InterestArea area;
    const size_t cells = 1 + rng.NextBelow(3);
    for (size_t c = 0; c < cells; ++c) {
      const size_t dims =
          rng.NextBool(0.9) ? max_dims : 1 + rng.NextBelow(max_dims);
      area.AddCell(RandomCell(&rng, dims, 3));
    }
    return area;
  };
  auto index = std::make_unique<AreaIndex>();
  std::map<uint32_t, InterestArea> live;  // the brute-force model
  size_t probes = 0;
  auto probe = [&] {
    const InterestArea request = random_area();
    std::vector<uint32_t> sorted;
    index->Candidates(request, &sorted);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "seed=" << seed << " an id returned twice for "
        << request.ToString();
    for (const uint32_t id : sorted) {
      EXPECT_EQ(live.count(id), 1u)
          << "seed=" << seed << " id " << id << " is not live";
    }
    for (const auto& [id, area] : live) {
      if (!area.Overlaps(request)) continue;
      EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), id))
          << "seed=" << seed << " missed id " << id << " " << area.ToString()
          << " for " << request.ToString();
    }
    ++probes;
  };
  constexpr uint32_t kIds = 24;
  const size_t ops = 20 + rng.NextBelow(100);
  for (size_t i = 0; i < ops; ++i) {
    const uint32_t id = static_cast<uint32_t>(rng.NextBelow(kIds));
    auto it = live.find(id);
    if (it == live.end()) {
      InterestArea area = random_area();
      index->Add(id, area);
      live.emplace(id, std::move(area));
    } else if (rng.NextBool(0.6)) {
      index->Remove(id, it->second);
      live.erase(it);
    }
    if (rng.NextBool(0.3)) probe();
    if (rng.NextBool(0.05)) {
      // The copy may not keep views into the source's buckets.
      auto copy = std::make_unique<AreaIndex>(*index);
      index = std::move(copy);
    }
  }
  for (int q = 0; q < 4; ++q) probe();
  return probes;
}

TEST(AreaIndexPropertyTest, CandidatesCoverEveryOverlapOnce) {
  size_t total = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    total += RunIndexCase(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first failure at seed " << seed;
    }
  }
  EXPECT_GE(total, 10000u);
}

// --- the catalog property ------------------------------------------------------

/// Everything but the entries that a catalog's resolution depends on.
struct CatalogConfig {
  std::vector<std::string> dimension_fields;
  std::string owner;
  InterestArea authority;
  bool authoritative = false;
  const ns::MultiHierarchy* hierarchies = nullptr;
  std::vector<IntensionalStatement> statements;

  void ApplyTo(Catalog* c) const {
    if (!dimension_fields.empty()) c->set_dimension_fields(dimension_fields);
    if (!owner.empty()) c->set_owner(owner);
    c->SetAuthority(authority, authoritative);
    if (hierarchies != nullptr) c->set_hierarchies(hierarchies);
  }
};

/// A catalog built from scratch: `config`, then `entries` in order, then
/// the statements. Its binding cache starts empty.
Catalog Rebuild(const CatalogConfig& config,
                const std::vector<IndexEntry>& entries) {
  Catalog c;
  config.ApplyTo(&c);
  for (const IndexEntry& e : entries) c.AddEntry(e);
  for (const IntensionalStatement& st : config.statements) c.AddStatement(st);
  return c;
}

// One seeded scenario: build, mutate, resolve, compare. Returns the
// number of resolutions compared (so the harness can prove coverage).
size_t RunCase(uint64_t seed) {
  Rng rng(seed);
  const size_t dims = 1 + rng.NextBelow(3);  // 1..3 dimensions
  ns::MultiHierarchy hierarchy;  // outlives the catalogs referencing it
  Catalog indexed;
  CatalogConfig config;
  ShadowEntries shadow;
  size_t compared = 0;

  // Resolves interleave with the mutations below, so every TouchMutation
  // site (and the hierarchy-version epoch) must actually invalidate the
  // mutated catalog's binding cache — the rebuilt twin has never cached.
  auto compare_resolve = [&](const InterestArea& request) {
    const std::string urn = "urn:x-mqp:area:" + request.ToString();
    const Binding reference =
        Rebuild(config, shadow.entries).ResolveArea(request, urn);
    const Binding mutated = indexed.ResolveArea(request, urn);
    EXPECT_TRUE(SameBinding(mutated, reference))
        << "seed=" << seed << " request=" << request.ToString()
        << "\n  mutated: " << mutated.ToString()
        << "\n  rebuilt: " << reference.ToString();
    const Binding cached = indexed.ResolveArea(request, urn);
    EXPECT_TRUE(SameBinding(cached, reference))
        << "seed=" << seed << " cached divergence on " << request.ToString();
    ++compared;
  };

  if (rng.NextBool(0.5)) config.dimension_fields = {"f0", "f1", "f2"};
  if (rng.NextBool(0.3)) {
    config.owner = "10.0.0." + std::to_string(rng.NextBelow(8)) + ":9020";
  }
  config.authority = RandomArea(&rng, dims, 2);
  config.authoritative = rng.NextBool(0.5);
  const bool with_hierarchy = rng.NextBool(0.5);
  if (with_hierarchy) {
    for (size_t d = 0; d < dims; ++d) {
      hierarchy.AddDimension("d" + std::to_string(d));
      for (int i = 0; i < 6; ++i) {
        hierarchy.dimension(d).Add(RandomPath(&rng, 3));
      }
    }
    // §3.5 approximation now rewrites unknown request categories; both
    // catalogs share the namespace, so results must still agree.
    config.hierarchies = &hierarchy;
  }
  config.ApplyTo(&indexed);

  // Build + mutate: interleave adds with removals so slot reuse, index
  // removal and the by-server lists all get exercised.
  const size_t ops = 10 + rng.NextBelow(40);
  std::vector<IndexEntry> ever_added;
  for (size_t i = 0; i < ops; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.70 || ever_added.empty()) {
      IndexEntry e = RandomEntry(&rng, dims);
      ever_added.push_back(e);
      shadow.Add(e);
      indexed.AddEntry(e);
    } else if (roll < 0.85) {
      // Exact removal: the sync projection path for tombstones/expiry.
      const IndexEntry& e = rng.Pick(ever_added);
      const bool removed_shadow = shadow.Remove(e);
      EXPECT_EQ(indexed.RemoveEntry(e), removed_shadow);
    } else {
      // Departure: every entry naming one server goes at once.
      const std::string server =
          "10.0.0." + std::to_string(rng.NextBelow(8)) + ":9020";
      shadow.RemoveServer(server);
      indexed.RemoveServer(server);
    }
    // Resolve mid-history: the next mutation must invalidate whatever
    // the indexed catalog just cached.
    if (rng.NextBool(0.2)) {
      compare_resolve(RandomArea(&rng, dims, 3));
    }
    if (with_hierarchy && rng.NextBool(0.1)) {
      // Namespace growth moves the cache epoch's hierarchy component.
      hierarchy.dimension(rng.NextBelow(dims)).Add(RandomPath(&rng, 3));
    }
  }

  // A few intensional statements among the live servers exercise the
  // statement-driven alternatives (and the by-server xpath lookup).
  const size_t num_statements = rng.NextBelow(3);
  for (size_t i = 0; i < num_statements; ++i) {
    IntensionalStatement st;
    st.relation =
        rng.NextBool(0.5) ? IntensionRelation::kEquals
                          : IntensionRelation::kContains;
    st.lhs.level =
        rng.NextBool(0.3) ? HoldingLevel::kIndex : HoldingLevel::kBase;
    st.lhs.area = RandomArea(&rng, dims, 2);
    st.lhs.server = "10.0.0." + std::to_string(rng.NextBelow(8)) + ":9020";
    HoldingRef r;
    r.level = HoldingLevel::kBase;
    r.area = RandomArea(&rng, dims, 2);
    r.server = "10.0.0." + std::to_string(rng.NextBelow(8)) + ":9020";
    r.delay_minutes = rng.NextBool(0.5) ? 30 : 0;
    st.rhs.push_back(std::move(r));
    indexed.AddStatement(st);
    config.statements.push_back(std::move(st));
  }

  // The incremental storage must present exactly the reference view.
  EXPECT_EQ(indexed.entries(), shadow.entries);

  // Final quiescent-state resolutions; cached re-resolution must agree
  // with itself and with the rebuilt twin.
  const size_t requests = 3 + rng.NextBelow(4);
  for (size_t q = 0; q < requests; ++q) {
    compare_resolve(RandomArea(&rng, dims, 3));
  }
  EXPECT_GT(indexed.resolve_stats().binding_cache_hits, 0u);
  return compared;
}

TEST(CatalogIndexPropertyTest, MutatedCatalogMatchesRebuiltTwin) {
  size_t total = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    total += RunCase(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at seed " << seed;
    }
  }
  // ~3-6 resolutions per case; make the coverage claim explicit.
  EXPECT_GE(total, 3000u);
}

// Directed regression: removal via slot reuse keeps insertion order.
TEST(CatalogIndexPropertyTest, SlotReuseKeepsInsertionOrder) {
  Catalog cat;
  cat.SetAuthority(InterestArea(InterestCell()), true);
  auto entry = [](const char* area, const char* server) {
    IndexEntry e;
    e.area = *InterestArea::Parse(area);
    e.server = server;
    e.xpath = "/data";
    return e;
  };
  cat.AddEntry(entry("(a,b)", "s1"));
  cat.AddEntry(entry("(a,c)", "s2"));
  cat.RemoveEntry(entry("(a,b)", "s1"));  // frees slot 0
  cat.AddEntry(entry("(a,d)", "s3"));     // reuses slot 0, newest seq
  const auto entries = cat.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].server, "s2");
  EXPECT_EQ(entries[1].server, "s3");
}

// Directed regression: a copied catalog's index must not share sorted
// views (bucket pointers) with the source — resolving from the copy
// after the original is gone and mutating the copy must both work.
TEST(CatalogIndexPropertyTest, CopiedCatalogResolvesAfterSourceDies) {
  auto entry = [](const char* area, const char* server) {
    IndexEntry e;
    e.area = *InterestArea::Parse(area);
    e.server = server;
    e.xpath = "/data";
    return e;
  };
  const InterestArea request = *InterestArea::Parse("(a.b,x)");
  Catalog copy;
  {
    Catalog original;
    original.SetAuthority(*InterestArea::Parse("(*,*)"), true);
    for (int i = 0; i < 32; ++i) {
      copy.AddEntry(entry(("(a.b,x" + std::to_string(i) + ")").c_str(), "s"));
    }
    original.AddEntry(entry("(a.b,x)", "s1"));
    original.AddEntry(entry("(a,x)", "s2"));
    // Warm the sorted views, then copy.
    (void)original.ResolveArea(request, "urn:warm");
    copy = original;
  }
  CatalogConfig config;
  config.authority = *InterestArea::Parse("(*,*)");
  config.authoritative = true;
  const Binding got = copy.ResolveArea(request, "urn:copy");
  const Binding want =
      Rebuild(config, {entry("(a.b,x)", "s1"), entry("(a,x)", "s2")})
          .ResolveArea(request, "urn:copy");
  EXPECT_TRUE(SameBinding(got, want)) << got.ToString() << " vs "
                                      << want.ToString();
  ASSERT_EQ(got.alternatives.size(), 1u);
  EXPECT_EQ(got.alternatives[0].sources.size(), 2u);
  // The copy stays independently mutable and correct.
  copy.RemoveServer("s2");
  EXPECT_EQ(copy.ResolveArea(request, "urn:copy2").alternatives[0]
                .sources.size(),
            1u);
}

// --- PathInterner unit coverage ------------------------------------------------

TEST(PathInternerTest, IntervalAncestryMatchesStringReference) {
  Rng rng(7);
  PathInterner interner;
  std::vector<CategoryPath> paths;
  paths.push_back(CategoryPath());  // top
  for (int i = 0; i < 200; ++i) {
    CategoryPath p = RandomPath(&rng, 4);
    interner.Intern(p);
    paths.push_back(std::move(p));
    if (i % 50 != 0) continue;
    // Re-check the whole matrix mid-growth: intervals must rebuild.
    for (const auto& a : paths) {
      for (const auto& b : paths) {
        const PathId ia = interner.Lookup(a);
        const PathId ib = interner.Lookup(b);
        ASSERT_NE(ia, ns::kNoPathId);
        ASSERT_NE(ib, ns::kNoPathId);
        EXPECT_EQ(interner.IsAncestorOrSame(ia, ib), a.IsAncestorOrSame(b));
        EXPECT_EQ(interner.Comparable(ia, ib), a.Comparable(b));
      }
    }
  }
}

TEST(PathInternerTest, DeepestKnownPrefix) {
  PathInterner interner;
  interner.Intern(*CategoryPath::Parse("USA/OR"));
  bool exact = true;
  const PathId p =
      interner.DeepestKnownPrefix(*CategoryPath::Parse("USA/OR/Portland"),
                                  &exact);
  EXPECT_FALSE(exact);
  EXPECT_EQ(interner.PathOf(p).ToString(), "USA/OR");
  const PathId q =
      interner.DeepestKnownPrefix(*CategoryPath::Parse("USA/OR"), &exact);
  EXPECT_TRUE(exact);
  EXPECT_EQ(q, p);
  EXPECT_EQ(interner.DeepestKnownPrefix(*CategoryPath::Parse("France"),
                                        &exact),
            PathInterner::kTopId);
  EXPECT_FALSE(exact);
}

}  // namespace
}  // namespace mqp::catalog
