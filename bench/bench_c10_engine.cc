// C10 — the zero-copy query engine vs the cloning/serializing reference.
//
// PR 5 rebased LocalStore onto shared immutable items, rekeyed set
// semantics from xml::Serialize strings to StructuralHash+equality,
// compiled field accessors for key extraction, and bounded-heap top-N.
// This experiment prices each kernel against the behavior it replaced:
//   * fetch      — shared refs vs the cloning store kept as the
//                  reference in tests/support/cloning_store.h,
//   * distinct / difference — hash-keyed vs the old serialize-keyed
//                  dedup (reference implemented here, as the engine
//                  no longer contains a serializing path),
//   * top-N      — bounded heap with decorated keys vs the old
//                  materialize / stable_sort (keys re-extracted per
//                  comparison) / truncate,
// at 1k/10k/100k items. The shape check enforces the acceptance floor:
// >=5x on the fetch+distinct path at 10k items, with both pipelines
// producing identical result sets and the shared pipeline performing
// zero item clones and zero xml::Serialize calls.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "mqp/mqp.h"
#include "support/cloning_store.h"

using namespace mqp;

namespace {

using algebra::Item;
using algebra::ItemSet;
using algebra::PlanNode;

// `distinct_fraction` of the items are unique; the rest are structural
// duplicates of earlier ones (fresh nodes, equal content).
ItemSet MakeItems(size_t n, double distinct_fraction) {
  workload::GarageSaleGenerator gen(7);
  auto sellers = gen.MakeSellers(1);
  const size_t distinct = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * distinct_fraction));
  ItemSet base = gen.MakeItems(sellers[0], distinct);
  Rng rng(11);
  ItemSet out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i < base.size()) {
      out.push_back(base[i]);
    } else {
      out.push_back(algebra::MakeItem(*rng.Pick(base)));
    }
  }
  rng.Shuffle(&out);
  return out;
}

engine::LocalStore& StoreWith(size_t n) {
  // One store per size, reused across benchmark iterations (rebuilding
  // 100k items per iteration would swamp the fetch being measured).
  static std::unordered_map<size_t, engine::LocalStore> stores;
  auto it = stores.find(n);
  if (it == stores.end()) {
    it = stores.emplace(n, engine::LocalStore()).first;
    it->second.AddCollection("c0", MakeItems(n, 1.0));
  }
  return it->second;
}

dom::CloningStore& CloningStoreWith(size_t n) {
  static std::unordered_map<size_t, dom::CloningStore> stores;
  auto it = stores.find(n);
  if (it == stores.end()) {
    it = stores.emplace(n, dom::CloningStore()).first;
    it->second.AddCollection("c0", MakeItems(n, 1.0));
  }
  return it->second;
}

const std::string kCollection = engine::LocalStore::CollectionXPath("c0");

void BM_FetchCloning(benchmark::State& state) {
  dom::CloningStore& store =
      CloningStoreWith(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto items = store.Fetch(kCollection);
    benchmark::DoNotOptimize(items);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FetchCloning)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FetchShared(benchmark::State& state) {
  engine::LocalStore& store = StoreWith(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto items = store.Fetch("", kCollection);
    benchmark::DoNotOptimize(items);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FetchShared)->Arg(1000)->Arg(10000)->Arg(100000);

// The old set semantics, preserved here as the reference: serialize every
// item, dedup on the string.
ItemSet SerializeKeyedDistinct(const ItemSet& items) {
  ItemSet out;
  std::unordered_set<std::string> seen;
  for (const Item& item : items) {
    if (seen.insert(xml::Serialize(*item)).second) out.push_back(item);
  }
  return out;
}

void BM_DistinctSerializeReference(benchmark::State& state) {
  const ItemSet items = MakeItems(static_cast<size_t>(state.range(0)), 0.5);
  for (auto _ : state) {
    auto out = SerializeKeyedDistinct(items);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DistinctSerializeReference)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DistinctHash(benchmark::State& state) {
  const ItemSet items = MakeItems(static_cast<size_t>(state.range(0)), 0.5);
  auto plan = PlanNode::Union({PlanNode::XmlData(items)}, /*distinct=*/true);
  for (auto _ : state) {
    auto out = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DistinctHash)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DifferenceSerializeReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ItemSet left = MakeItems(n, 0.5);
  const ItemSet right(left.begin(), left.begin() + static_cast<long>(n / 2));
  for (auto _ : state) {
    std::unordered_map<std::string, int> counts;
    for (const Item& item : right) counts[xml::Serialize(*item)]++;
    ItemSet out;
    for (const Item& item : left) {
      auto it = counts.find(xml::Serialize(*item));
      if (it != counts.end() && it->second > 0) {
        --it->second;
        continue;
      }
      out.push_back(item);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DifferenceSerializeReference)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DifferenceHash(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ItemSet left = MakeItems(n, 0.5);
  const ItemSet right(left.begin(), left.begin() + static_cast<long>(n / 2));
  auto plan = PlanNode::Difference(PlanNode::XmlData(left),
                                   PlanNode::XmlData(right));
  for (auto _ : state) {
    auto out = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DifferenceHash)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TopNSortReference(benchmark::State& state) {
  // The old top-N: materialize everything, stable_sort with the key
  // re-extracted on every comparison, truncate to n.
  const ItemSet items = MakeItems(static_cast<size_t>(state.range(0)), 1.0);
  auto key = [](const Item& item) {
    const xml::Node* c = item->Child("price");
    return algebra::Value{c != nullptr ? c->InnerText() : std::string()};
  };
  for (auto _ : state) {
    ItemSet sorted = items;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const Item& a, const Item& b) {
                       return key(a).Compare(key(b)) < 0;
                     });
    if (sorted.size() > 10) sorted.resize(10);
    benchmark::DoNotOptimize(sorted);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TopNSortReference)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TopNHeap(benchmark::State& state) {
  const ItemSet items = MakeItems(static_cast<size_t>(state.range(0)), 1.0);
  auto plan =
      PlanNode::TopN(10, "price", true, PlanNode::XmlData(items));
  for (auto _ : state) {
    auto out = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TopNHeap)->Arg(1000)->Arg(10000)->Arg(100000);

// --- the fetch+distinct pipeline (shape-check path) ----------------------------
//
// Two collections with a 50% overlap, fetched and unioned with set
// semantics — the replica-union query shape. The reference runs the old
// engine behavior end to end: cloning fetch + serialize-keyed dedup.

struct PipelineFixture {
  engine::LocalStore store;
  dom::CloningStore cloning;  // the same collections
  algebra::PlanNodePtr plan;

  explicit PipelineFixture(size_t n) {
    ItemSet base = MakeItems(n, 1.0);
    ItemSet a(base.begin(), base.begin() + static_cast<long>(n * 3 / 4));
    ItemSet b(base.begin() + static_cast<long>(n / 4), base.end());
    store.AddCollection("a", a);
    store.AddCollection("b", b);
    cloning.AddCollection("a", a);
    cloning.AddCollection("b", b);
    plan = PlanNode::Union(
        {PlanNode::Url("local:9020", engine::LocalStore::CollectionXPath("a")),
         PlanNode::Url("local:9020",
                       engine::LocalStore::CollectionXPath("b"))},
        /*distinct=*/true);
  }

  ItemSet RunReference() {
    auto a = cloning.Fetch(engine::LocalStore::CollectionXPath("a"));
    auto b = cloning.Fetch(engine::LocalStore::CollectionXPath("b"));
    ItemSet all = std::move(a).value();
    ItemSet bs = std::move(b).value();
    all.insert(all.end(), bs.begin(), bs.end());
    return SerializeKeyedDistinct(all);
  }

  ItemSet RunShared() {
    return engine::Evaluate(*plan, &store).value();
  }
};

void BM_FetchDistinctReference(benchmark::State& state) {
  PipelineFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = fx.RunReference();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FetchDistinctReference)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FetchDistinctShared(benchmark::State& state) {
  PipelineFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = fx.RunShared();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FetchDistinctShared)->Arg(1000)->Arg(10000)->Arg(100000);

// --- shape check ---------------------------------------------------------------

double SecondsPerRun(PipelineFixture* fx, bool shared, size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    auto out = shared ? fx->RunShared() : fx->RunReference();
    benchmark::DoNotOptimize(out);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(iters);
}

int ShapeCheck() {
  PipelineFixture fx(10000);
  // Equivalence first: identical result sequences, and the shared run
  // performs zero item clones and zero xml::Serialize calls.
  ItemSet reference = fx.RunReference();
  const uint64_t cloned_before = engine::Stats().items_cloned;
  const uint64_t serializes_before = xml::SerializeCalls();
  ItemSet shared = fx.RunShared();
  const uint64_t cloned = engine::Stats().items_cloned - cloned_before;
  const uint64_t serialized = xml::SerializeCalls() - serializes_before;
  if (cloned != 0 || serialized != 0) {
    std::printf("FAIL: shared fetch+distinct cloned %llu items / made %llu "
                "Serialize calls (want 0/0)\n",
                static_cast<unsigned long long>(cloned),
                static_cast<unsigned long long>(serialized));
    return 1;
  }
  if (reference.size() != shared.size()) {
    std::printf("FAIL: pipelines diverge: %zu vs %zu items\n",
                reference.size(), shared.size());
    return 1;
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    if (!reference[i]->StructurallyEquals(*shared[i])) {
      std::printf("FAIL: pipelines diverge at item %zu\n", i);
      return 1;
    }
  }
  // Interleaved min-of-5 (scheduler noise on shared CI runners).
  (void)SecondsPerRun(&fx, true, 4);  // warm
  (void)SecondsPerRun(&fx, false, 4);
  double t_ref = 1e9, t_shared = 1e9;
  for (int round = 0; round < 5; ++round) {
    t_ref = std::min(t_ref, SecondsPerRun(&fx, false, 8));
    t_shared = std::min(t_shared, SecondsPerRun(&fx, true, 8));
  }
  const double speedup = t_ref / t_shared;
  std::printf(
      "Shape check: fetch+distinct over 10k items %.2f ms shared vs %.2f ms "
      "cloning/serializing reference — %.1fx (acceptance floor: 5x), "
      "identical results, 0 clones, 0 Serialize calls.\n",
      t_shared * 1e3, t_ref * 1e3, speedup);
  if (speedup < 5.0) {
    std::printf("FAIL: speedup %.1fx below the 5x acceptance floor\n",
                speedup);
    return 1;
  }
  std::printf("OK: >=5x on the fetch+distinct path at 10k items\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ShapeCheck();
}
