// F2 — Figure 2: per-stage cost of the mutant-query-processing loop.
//
// The figure names the stages: parse (XML → plan graph), catalog/resolve
// (URN binding), optimize (rewrites + evaluable-sub-plan detection),
// policy (deferment decisions), query engine (evaluation), and the final
// serialization of the mutated plan. We measure each stage against plan
// data size (items embedded in the plan).
#include <benchmark/benchmark.h>

#include "net/simulator.h"
#include "mqp/mqp.h"

using namespace mqp;

namespace {

algebra::Plan MakePlanWithItems(size_t items) {
  workload::GarageSaleGenerator gen(7);
  auto sellers = gen.MakeSellers(1);
  algebra::ItemSet data = gen.MakeItems(sellers[0], items);
  auto sel = algebra::PlanNode::Select(
      algebra::FieldLess("price", "100"),
      algebra::PlanNode::Union(
          {algebra::PlanNode::XmlData(std::move(data)),
           algebra::PlanNode::UrnRef(
               "urn:InterestArea:(USA.OR.Portland,Music.CDs)")}));
  return algebra::Plan(algebra::PlanNode::Display("client:1", sel));
}

void BM_ParsePlan(benchmark::State& state) {
  const std::string wire =
      algebra::SerializePlan(MakePlanWithItems(state.range(0)));
  for (auto _ : state) {
    auto plan = algebra::ParsePlan(wire);
    benchmark::DoNotOptimize(plan);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_ParsePlan)->Arg(10)->Arg(100)->Arg(1000);

void BM_ResolveUrn(benchmark::State& state) {
  catalog::Catalog cat;
  Rng rng(3);
  workload::GarageSaleGenerator gen(3);
  auto sellers = gen.MakeSellers(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < sellers.size(); ++i) {
    catalog::IndexEntry e;
    e.level = catalog::HoldingLevel::kBase;
    e.area = ns::InterestArea(sellers[i].cell);
    e.server = "10.0.0." + std::to_string(i) + ":9020";
    e.xpath = "/data[id=c" + std::to_string(i) + "]";
    cat.AddEntry(std::move(e));
  }
  cat.SetAuthority(ns::InterestArea(ns::InterestCell(
                       {ns::CategoryPath(), ns::CategoryPath()})),
                   true);
  const std::string urn = "urn:InterestArea:(USA.OR,*)";
  for (auto _ : state) {
    auto binding = cat.Resolve(urn);
    benchmark::DoNotOptimize(binding);
  }
}
BENCHMARK(BM_ResolveUrn)->Arg(10)->Arg(100)->Arg(1000);

void BM_OptimizeRewrites(benchmark::State& state) {
  auto plan = MakePlanWithItems(static_cast<size_t>(state.range(0)));
  optimizer::CostModel cost;
  optimizer::Locality locality;
  for (auto _ : state) {
    auto copy = plan.root()->Clone();
    optimizer::PushSelectThroughUnion(copy.get());
    optimizer::EliminateOrNodes(copy.get(), locality, cost,
                                optimizer::OrPreference::kPreferLocal);
    optimizer::ConsolidateJoins(copy.get(), locality);
    auto subs = optimizer::MaximalEvaluableSubplans(copy.get(), locality);
    benchmark::DoNotOptimize(subs);
  }
}
BENCHMARK(BM_OptimizeRewrites)->Arg(10)->Arg(100)->Arg(1000);

void BM_PolicyDecide(benchmark::State& state) {
  auto plan = MakePlanWithItems(static_cast<size_t>(state.range(0)));
  optimizer::CostModel cost;
  optimizer::Locality locality;
  optimizer::PolicyManager pm;
  auto subs =
      optimizer::MaximalEvaluableSubplans(plan.root().get(), locality);
  for (auto _ : state) {
    auto decisions = pm.Decide(subs, cost);
    benchmark::DoNotOptimize(decisions);
  }
}
BENCHMARK(BM_PolicyDecide)->Arg(100);

void BM_EngineEvaluate(benchmark::State& state) {
  workload::GarageSaleGenerator gen(11);
  auto sellers = gen.MakeSellers(1);
  algebra::ItemSet data =
      gen.MakeItems(sellers[0], static_cast<size_t>(state.range(0)));
  auto plan = algebra::PlanNode::Select(algebra::FieldLess("price", "50"),
                                        algebra::PlanNode::XmlData(data));
  for (auto _ : state) {
    auto items = engine::Evaluate(*plan);
    benchmark::DoNotOptimize(items);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EngineEvaluate)->Arg(10)->Arg(100)->Arg(1000);

void BM_SerializePlan(benchmark::State& state) {
  auto plan = MakePlanWithItems(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::string wire = algebra::SerializePlan(plan);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(algebra::PlanWireSize(plan)));
}
BENCHMARK(BM_SerializePlan)->Arg(10)->Arg(100)->Arg(1000);

void BM_SerializePlanCached(benchmark::State& state) {
  // The wire-layer fast path: an unchanged plan costs one fingerprint
  // walk, not a serialization. Compare against BM_SerializePlan.
  auto plan = MakePlanWithItems(static_cast<size_t>(state.range(0)));
  (void)wire::SerializePlanShared(plan);  // warm the cache
  for (auto _ : state) {
    auto wire_form = wire::SerializePlanShared(plan);
    benchmark::DoNotOptimize(wire_form);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(algebra::PlanWireSize(plan)));
}
BENCHMARK(BM_SerializePlanCached)->Arg(10)->Arg(100)->Arg(1000);

/// client → `relays` pure-routing relays → an authoritative base holding
/// 100 items in `area`, the cell every query asks for. Peers hold the
/// simulator's address, so the pipeline lives behind a pointer and never
/// moves.
struct Pipeline {
  ns::InterestArea area = ns::MakeArea({"USA/OR/Portland", "Music/CDs"});
  net::Simulator sim;
  std::unique_ptr<peer::Peer> client;
  std::vector<std::unique_ptr<peer::Peer>> chain;
  std::unique_ptr<peer::Peer> authority;
};

std::unique_ptr<Pipeline> BuildPipeline(size_t relays) {
  auto p = std::make_unique<Pipeline>();
  auto quiet = [](std::string name) {
    peer::PeerOptions o;
    o.name = std::move(name);
    o.record_provenance = false;  // pure routing: nothing mutates en route
    o.cache_from_plans = false;
    return o;
  };
  p->client = std::make_unique<peer::Peer>(&p->sim, quiet("client"));
  for (size_t i = 0; i < relays; ++i) {
    p->chain.push_back(std::make_unique<peer::Peer>(
        &p->sim, quiet("relay" + std::to_string(i))));
  }
  auto ao = quiet("authority");
  ao.roles.base = true;
  ao.roles.index = true;
  ao.roles.authoritative = true;
  ao.interest = ns::MakeArea({"USA/OR", "*"});
  p->authority = std::make_unique<peer::Peer>(&p->sim, ao);
  workload::GarageSaleGenerator gen(7);
  auto sellers = gen.MakeSellers(1);
  p->authority->PublishCollection("c0", p->area,
                                  gen.MakeItems(sellers[0], 100));

  // Bootstrap chain: client → relay0 → … → authority.
  std::string next = p->authority->address();
  for (size_t i = relays; i-- > 0;) {
    p->chain[i]->AddBootstrap(next);
    next = p->chain[i]->address();
  }
  p->client->AddBootstrap(next);
  return p;
}

/// Submits one area query and runs it to the end; false if it did not
/// complete.
bool RunPipelineQuery(Pipeline* p) {
  bool done = false;
  p->client->SubmitQuery(workload::MakeAreaQueryPlan(p->area),
                         [&](const peer::QueryOutcome&) { done = true; });
  p->sim.Run();
  return done;
}

void BM_PipelinePerQueryWireWork(benchmark::State& state) {
  // End-to-end MQP pipeline: client → relay chain → authoritative base.
  // Reports serializations / parses / reused forwards *per query* next to
  // bytes: the win criterion is serializations strictly below one per
  // plan-carrying hop. range(0) = number of pure-routing relays.
  const size_t relays = static_cast<size_t>(state.range(0));
  auto timed = BuildPipeline(relays);
  for (auto _ : state) {
    if (!RunPipelineQuery(timed.get())) {
      state.SkipWithError("query did not complete");
    }
  }
  // The counters average a fixed number of queries on a fresh pipeline,
  // so they read the same however many iterations the loop above ran
  // (each one leaves the client with longer query ids).
  constexpr int kCountedQueries = 8;
  auto counted = BuildPipeline(relays);
  for (int q = 0; q < kCountedQueries; ++q) {
    if (!RunPipelineQuery(counted.get())) {
      state.SkipWithError("query did not complete");
    }
  }
  auto per_query = [](double total) {
    return benchmark::Counter(total / kCountedQueries);
  };
  const net::NetStats& stats = counted->sim.stats();
  auto by_kind = [&stats](const char* kind) -> uint64_t {
    auto it = stats.messages_by_kind.find(kind);
    return it == stats.messages_by_kind.end() ? 0 : it->second;
  };
  state.counters["serializations/query"] = per_query(stats.plan_serializations);
  state.counters["parses/query"] = per_query(stats.plan_parses);
  state.counters["reused_forwards/query"] =
      per_query(stats.forwards_without_reserialize);
  state.counters["plan_hops/query"] =
      per_query(by_kind("mqp") + by_kind("result"));
  state.counters["bytes/query"] = per_query(stats.bytes);
  // Streaming-codec visibility: DOM nodes built while decoding plans
  // (only result items should count — every pure routing hop must
  // contribute zero).
  state.counters["dom_nodes_built/query"] = per_query(stats.dom_nodes_built);
  // Engine visibility (PR 5): items deep-copied during evaluation (zero
  // on the shared-store steady path), compiled-accessor key extractions,
  // and wall-clock evaluation time.
  state.counters["items_cloned/query"] = per_query(stats.items_cloned);
  state.counters["accessor_hits/query"] = per_query(stats.field_accessor_hits);
  state.counters["engine_eval_us/query"] =
      per_query(stats.engine_eval_ns / 1e3);
  // Overload visibility (DESIGN.md §11): both must stay zero on this
  // uncongested path — a nonzero here means the defenses or the
  // threaded runtime's backpressure leaked into the reference pipeline.
  state.counters["queries_shed/query"] = per_query(stats.queries_shed);
  state.counters["mailbox_soft_overflows/query"] =
      per_query(stats.mailbox_soft_overflows);
}
BENCHMARK(BM_PipelinePerQueryWireWork)->Arg(0)->Arg(2)->Arg(6);

/// The top-k network: 8 sellers of 200 items each.
workload::GarageSaleNetwork BuildTopKNetwork(net::Simulator* sim) {
  workload::GarageSaleNetworkParams params;
  params.num_sellers = 8;
  params.items_per_seller = 200;
  params.seed = 7;
  return workload::BuildGarageSaleNetwork(sim, params);
}

/// Submits one top-k-by-price (USA,*) query and runs it to the end;
/// false if it did not complete.
bool RunTopKQuery(net::Simulator* sim, peer::Peer* client, uint64_t k) {
  static const auto area = *ns::InterestArea::Parse("(USA,*)");
  bool done = false;
  client->SubmitQuery(
      workload::MakeTopKQueryPlan(area, "price", /*ascending=*/true, k),
      [&](const peer::QueryOutcome&) { done = true; });
  sim->Run();
  return done;
}

void TopKWireBytes(benchmark::State& state, bool distributed) {
  // Per-query bytes-on-wire for a top-k-by-price interest-area query,
  // distributed sessions vs the ship-everything reference (flip the
  // ablation knob). range(0) = k. Compare bytes/query across the two.
  const auto k = static_cast<uint64_t>(state.range(0));
  const bool saved = optimizer::use_distributed_topk();
  optimizer::set_use_distributed_topk(distributed);
  net::Simulator sim;
  auto net = BuildTopKNetwork(&sim);
  for (auto _ : state) {
    if (!RunTopKQuery(&sim, net.client, k)) {
      state.SkipWithError("query did not complete");
    }
  }
  // The counters average a fixed number of queries on a fresh network,
  // so they read the same however many iterations the loop above ran
  // (each one leaves the client with more query ids and cached entries).
  constexpr int kCountedQueries = 8;
  net::Simulator fresh;
  auto counted = BuildTopKNetwork(&fresh);
  fresh.stats().Clear();
  for (int q = 0; q < kCountedQueries; ++q) {
    if (!RunTopKQuery(&fresh, counted.client, k)) {
      state.SkipWithError("query did not complete");
    }
  }
  optimizer::set_use_distributed_topk(saved);

  const auto& stats = fresh.stats();
  auto per_query = [](uint64_t total) {
    return benchmark::Counter(static_cast<double>(total) / kCountedQueries);
  };
  state.counters["bytes/query"] = per_query(stats.bytes);
  state.counters["topk_batches/query"] = per_query(stats.topk_batches);
  state.counters["rows_pruned/query"] = per_query(stats.topk_rows_pruned);
  state.counters["bytes_saved/query"] = per_query(stats.topk_bytes_saved);
}

void BM_TopKPerQueryWireBytes(benchmark::State& state) {
  TopKWireBytes(state, /*distributed=*/true);
}
BENCHMARK(BM_TopKPerQueryWireBytes)->Arg(1)->Arg(10)->Arg(100);

void BM_TopKPerQueryWireBytesAblated(benchmark::State& state) {
  TopKWireBytes(state, /*distributed=*/false);
}
BENCHMARK(BM_TopKPerQueryWireBytesAblated)->Arg(1)->Arg(10)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
