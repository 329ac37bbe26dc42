// C6 — substrate microbenchmarks: the XML engine standing in for NIAGARA
// (see DESIGN.md substitutions) and the physical operators.
#include <benchmark/benchmark.h>

#include "mqp/mqp.h"
#include "support/dom_parser.h"

using namespace mqp;

namespace {

std::string BigDocument(size_t items) {
  workload::GarageSaleGenerator gen(5);
  auto sellers = gen.MakeSellers(1);
  auto data = gen.MakeItems(sellers[0], items);
  auto root = xml::Node::Element("data");
  for (const auto& item : data) {
    root->AddChild(item->Clone());
  }
  return xml::Serialize(*root);
}

void BM_XmlParse(benchmark::State& state) {
  const std::string doc = BigDocument(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto parsed = xml::Parse(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_XmlParse)->Arg(100)->Arg(1000);

void BM_XmlSerialize(benchmark::State& state) {
  const std::string doc = BigDocument(static_cast<size_t>(state.range(0)));
  auto tree = std::move(xml::Parse(doc)).value();
  for (auto _ : state) {
    std::string out = xml::Serialize(*tree);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_XmlSerialize)->Arg(100)->Arg(1000);

void BM_XPathEval(benchmark::State& state) {
  auto tree = std::move(xml::Parse(BigDocument(1000))).value();
  auto xp = *xml::XPath::Parse("/data/item[price<50]");
  for (auto _ : state) {
    auto matches = xp.Eval(*tree);
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_XPathEval);

algebra::ItemSet Items(size_t n, uint64_t seed) {
  workload::GarageSaleGenerator gen(seed);
  auto sellers = gen.MakeSellers(1);
  return gen.MakeItems(sellers[0], n);
}

void BM_EngineSelect(benchmark::State& state) {
  auto data = Items(static_cast<size_t>(state.range(0)), 1);
  auto plan = algebra::PlanNode::Select(algebra::FieldLess("price", "50"),
                                        algebra::PlanNode::XmlData(data));
  for (auto _ : state) {
    auto r = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EngineSelect)->Arg(1000)->Arg(10000);

void BM_EngineHashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  algebra::ItemSet left, right;
  for (size_t i = 0; i < n; ++i) {
    auto l = xml::Node::Element("l");
    l->AddElementWithText("k", std::to_string(i % (n / 4 + 1)));
    left.push_back(algebra::Item(l.release()));
    auto r = xml::Node::Element("r");
    r->AddElementWithText("rk", std::to_string(i % (n / 4 + 1)));
    right.push_back(algebra::Item(r.release()));
  }
  auto plan = algebra::PlanNode::Join(algebra::JoinEq("k", "rk"),
                                      algebra::PlanNode::XmlData(left),
                                      algebra::PlanNode::XmlData(right));
  for (auto _ : state) {
    auto r = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_EngineHashJoin)->Arg(256)->Arg(2048);

void BM_EngineTopN(benchmark::State& state) {
  auto data = Items(static_cast<size_t>(state.range(0)), 2);
  auto plan =
      algebra::PlanNode::TopN(10, "price", true,
                              algebra::PlanNode::XmlData(data));
  for (auto _ : state) {
    auto r = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EngineTopN)->Arg(1000)->Arg(10000);

void BM_EngineAggregate(benchmark::State& state) {
  auto data = Items(static_cast<size_t>(state.range(0)), 3);
  auto plan = algebra::PlanNode::Aggregate(
      algebra::AggFunc::kAvg, "price", "category",
      algebra::PlanNode::XmlData(data));
  for (auto _ : state) {
    auto r = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EngineAggregate)->Arg(1000)->Arg(10000);

void BM_LocalStoreFetch(benchmark::State& state) {
  engine::LocalStore store;
  store.AddCollection("245", Items(static_cast<size_t>(state.range(0)), 4));
  for (auto _ : state) {
    auto r = store.Fetch("", "/data[id=245]");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LocalStoreFetch)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
