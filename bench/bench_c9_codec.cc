// C9 — streaming vs DOM plan codec on the wire hot path.
//
// Every hop re-examines the MQP's XML; PR 1 removed re-*serialization*
// from routing hops, this experiment prices the remaining decode (and the
// first-time encode) in both codecs:
//   * dom       — the reference in tests/support/dom_plan_codec.h:
//                 xml::Parse → Node tree → PlanFromXml (decode),
//                 PlanToXml → xml::Serialize (encode),
//   * streaming — the library's token codec (algebra/plan_xml.h): bytes →
//                 PlanNodes directly, and PlanNodes → bytes through the
//                 emitting sink.
// Plans are measured at operator depths 2/8/32, with and without inline
// <data> items. The streaming decode keeps canonical items as verbatim
// bytes, so its dom_nodes/decode is zero either way; the DOM decode's
// counter makes the waste visible.
//
// The shape check covers depths 8 and 32, item-free and with 20 items
// per data leaf. Each row requires the ≥2x streaming-vs-DOM decode
// speedup, zero DOM nodes built by the streaming decode, re-encodes
// from both decoders equal to the input bytes, and a streaming decode
// that Equals the DOM decode once its items are built.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "mqp/mqp.h"
#include "support/dom_plan_codec.h"

using namespace mqp;

namespace {

using algebra::Plan;
using algebra::PlanNode;
using algebra::PlanNodePtr;

// A depth-`d` operator chain with a union kink every 4 levels (breadth +
// shared-leaf variety), annotated like a travelled plan: cardinalities
// plus the §5.1 histograms AnnotateLocalUrls attaches, and a multi-visit
// provenance trail.
Plan MakePlan(int depth, size_t items_per_leaf) {
  workload::GarageSaleGenerator gen(7);
  auto sellers = gen.MakeSellers(1);
  PlanNodePtr node;
  if (items_per_leaf > 0) {
    node = PlanNode::XmlData(gen.MakeItems(sellers[0], items_per_leaf));
  } else {
    node = PlanNode::UrnRef("urn:InterestArea:(USA.OR.Portland,Music.CDs)");
  }
  for (int i = 0; i < depth; ++i) {
    if (i % 4 == 3) {
      auto extra =
          PlanNode::UrnRef("urn:InterestArea:(USA.WA,*)", "10.0.0.9:9020");
      node = PlanNode::Union({std::move(node), std::move(extra)});
    } else {
      node = PlanNode::Select(
          algebra::FieldLess("price", std::to_string(10 + i)),
          std::move(node));
    }
    if (i % 3 == 0) {
      node->annotations().cardinality = 100 + static_cast<uint64_t>(i);
      algebra::FieldHistogram h;
      h.field = "price";
      h.min = 1;
      h.max = 500;
      h.total = 100;
      for (int b = 0; b < 8; ++b) {
        h.counts.push_back(static_cast<uint64_t>(b) * 3);
      }
      node->annotations().histograms.push_back(std::move(h));
    }
  }
  Plan plan(PlanNode::Display("10.0.0.1:9020", std::move(node)));
  plan.set_query_id("bench-c9");
  for (int v = 0; v < 4; ++v) {
    plan.provenance().Add({"10.0.0." + std::to_string(v) + ":9020", 1.5 * v,
                           algebra::ProvenanceAction::kForwarded, "relay",
                           0});
  }
  return plan;
}

// Streaming decodes take the shared wire buffer, like
// wire::ParsePlanShared; the DOM reference reads the same bytes.
Result<Plan> Decode(const net::Payload& wire, bool streaming) {
  return streaming ? algebra::ParsePlan(wire) : dom::ParsePlan(*wire);
}

void DecodeLoop(benchmark::State& state, bool streaming,
                size_t items_per_leaf) {
  const net::Payload wire = net::MakePayload(algebra::SerializePlan(
      MakePlan(static_cast<int>(state.range(0)), items_per_leaf)));
  const uint64_t nodes_before = xml::DomNodesBuilt();
  uint64_t decodes = 0;
  for (auto _ : state) {
    auto plan = Decode(wire, streaming);
    benchmark::DoNotOptimize(plan);
    ++decodes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire->size()));
  state.counters["dom_nodes/decode"] = benchmark::Counter(
      static_cast<double>(xml::DomNodesBuilt() - nodes_before) /
      static_cast<double>(decodes == 0 ? 1 : decodes));
}

void BM_DecodePlanDom(benchmark::State& state) {
  DecodeLoop(state, /*streaming=*/false, /*items_per_leaf=*/0);
}
BENCHMARK(BM_DecodePlanDom)->Arg(2)->Arg(8)->Arg(32);

void BM_DecodePlanStreaming(benchmark::State& state) {
  DecodeLoop(state, /*streaming=*/true, /*items_per_leaf=*/0);
}
BENCHMARK(BM_DecodePlanStreaming)->Arg(2)->Arg(8)->Arg(32);

void BM_DecodePlanDomWithData(benchmark::State& state) {
  DecodeLoop(state, /*streaming=*/false, /*items_per_leaf=*/20);
}
BENCHMARK(BM_DecodePlanDomWithData)->Arg(2)->Arg(8)->Arg(32);

void BM_DecodePlanStreamingWithData(benchmark::State& state) {
  DecodeLoop(state, /*streaming=*/true, /*items_per_leaf=*/20);
}
BENCHMARK(BM_DecodePlanStreamingWithData)->Arg(2)->Arg(8)->Arg(32);

void EncodeLoop(benchmark::State& state, bool streaming,
                size_t items_per_leaf) {
  const Plan plan =
      MakePlan(static_cast<int>(state.range(0)), items_per_leaf);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string wire = streaming ? algebra::SerializePlan(plan)
                                 : dom::SerializePlan(plan);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

void BM_EncodePlanDom(benchmark::State& state) {
  EncodeLoop(state, /*streaming=*/false, /*items_per_leaf=*/0);
}
BENCHMARK(BM_EncodePlanDom)->Arg(2)->Arg(8)->Arg(32);

void BM_EncodePlanStreaming(benchmark::State& state) {
  EncodeLoop(state, /*streaming=*/true, /*items_per_leaf=*/0);
}
BENCHMARK(BM_EncodePlanStreaming)->Arg(2)->Arg(8)->Arg(32);

void BM_EncodePlanDomWithData(benchmark::State& state) {
  EncodeLoop(state, /*streaming=*/false, /*items_per_leaf=*/20);
}
BENCHMARK(BM_EncodePlanDomWithData)->Arg(8);

void BM_EncodePlanStreamingWithData(benchmark::State& state) {
  EncodeLoop(state, /*streaming=*/true, /*items_per_leaf=*/20);
}
BENCHMARK(BM_EncodePlanStreamingWithData)->Arg(8);

void BM_PlanWireSizeStreaming(benchmark::State& state) {
  // The counting sink: pricing a plan without materializing bytes.
  const Plan plan = MakePlan(static_cast<int>(state.range(0)), 20);
  for (auto _ : state) {
    size_t n = algebra::PlanWireSize(plan);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_PlanWireSizeStreaming)->Arg(8);

// --- shape check ---------------------------------------------------------------

double SecondsPerDecode(const net::Payload& wire, bool streaming,
                        size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    auto plan = Decode(wire, streaming);
    benchmark::DoNotOptimize(plan);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(iters);
}

// One shape-check row; prints the reason and returns false on a failure.
bool CheckRow(int depth, size_t items_per_leaf) {
  const net::Payload wire =
      net::MakePayload(algebra::SerializePlan(MakePlan(depth, items_per_leaf)));
  const uint64_t nodes_before = xml::DomNodesBuilt();
  auto via_stream = Decode(wire, /*streaming=*/true);
  const uint64_t stream_nodes = xml::DomNodesBuilt() - nodes_before;
  auto via_dom = Decode(wire, /*streaming=*/false);
  // Equivalence: both decodes re-encode to the input bytes (carried items
  // verbatim), and agree once the streaming decode builds its items.
  if (!via_stream.ok() || !via_dom.ok() ||
      algebra::SerializePlan(*via_stream) != *wire ||
      algebra::SerializePlan(*via_dom) != *wire ||
      !via_stream->root()->Equals(*via_dom->root())) {
    std::printf("FAIL: codec paths diverge at depth %d, %zu items/leaf\n",
                depth, items_per_leaf);
    return false;
  }
  if (stream_nodes != 0) {
    std::printf("FAIL: streaming decode built %llu DOM nodes at depth %d, "
                "%zu items/leaf\n",
                static_cast<unsigned long long>(stream_nodes), depth,
                items_per_leaf);
    return false;
  }
  // Interleaved min-of-5: a single pass per mode is at the mercy of
  // scheduler noise on shared CI runners.
  (void)SecondsPerDecode(wire, true, 128);  // warm
  (void)SecondsPerDecode(wire, false, 128);
  double t_dom = 1e9, t_stream = 1e9;
  for (int round = 0; round < 5; ++round) {
    t_dom = std::min(t_dom, SecondsPerDecode(wire, false, 512));
    t_stream = std::min(t_stream, SecondsPerDecode(wire, true, 512));
  }
  const double speedup = t_dom / t_stream;
  std::printf(
      "Shape check: depth-%d plan, %zu items/leaf: decode %.2f us streaming "
      "vs %.2f us DOM — %.1fx (acceptance floor: 2x), zero DOM nodes "
      "built, input bytes re-encoded, identical plans.\n",
      depth, items_per_leaf, t_stream * 1e6, t_dom * 1e6, speedup);
  if (speedup < 2.0) {
    std::printf("FAIL: speedup %.1fx below the 2x acceptance floor\n",
                speedup);
    return false;
  }
  return true;
}

int ShapeCheck() {
  for (const size_t items_per_leaf : {size_t{0}, size_t{20}}) {
    for (const int depth : {8, 32}) {
      if (!CheckRow(depth, items_per_leaf)) return 1;
    }
  }
  std::printf(
      "OK: >=2x streaming decode speedup at depth 8 and 32, with and "
      "without carried data\n");
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
