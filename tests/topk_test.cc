// Distributed top-k suite (DESIGN.md §10): shared-order heap vs the
// stable-sort reference, bound monotonicity, bounded-prefix continuation
// reassembly, parser/codec round-trips of the unbounded-TopN
// representation and tk annotations, seeded end-to-end equivalence of
// the bounded protocol against the ship-everything reference (simulator
// and threaded runtime), counter accounting, fault-injection
// composition, and the monotonic replica-id mint.
//
// Seed counts default to a quick smoke sweep; CI's dedicated job sets
// MQP_EQUIV_SEEDS=1000 for the full suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/plan.h"
#include "algebra/plan_xml.h"
#include "algebra/walk.h"
#include "common/rng.h"
#include "common/strings.h"
#include "engine/field_accessor.h"
#include "engine/local_store.h"
#include "engine/operator.h"
#include "engine/topk_heap.h"
#include "net/fault_injector.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "ns/interest.h"
#include "optimizer/rewrites.h"
#include "peer/peer.h"
#include "query/parser.h"
#include "runtime/threaded_runtime.h"
#include "support/dom_plan_codec.h"
#include "wire/envelope.h"
#include "wire/plan_codec.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"
#include "xml/node.h"

namespace mqp {
namespace {

using algebra::Item;
using algebra::ItemSet;
using algebra::PlanNode;
using engine::TopKBoundRef;
using engine::TopKHeap;
using engine::TopKSpec;
using peer::Peer;
using peer::PeerOptions;
using peer::QueryOutcome;
using runtime::RuntimeOptions;
using runtime::ThreadedRuntime;

size_t EquivSeeds(size_t fallback) {
  if (const char* env = std::getenv("MQP_EQUIV_SEEDS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

/// RAII flip of the process-global distributed-top-k knob.
class ScopedTopK {
 public:
  explicit ScopedTopK(bool on) : saved_(optimizer::use_distributed_topk()) {
    optimizer::set_use_distributed_topk(on);
  }
  ~ScopedTopK() { optimizer::set_use_distributed_topk(saved_); }

 private:
  bool saved_;
};

Item PricedItem(const std::string& price) {
  auto node = xml::Node::Element("item");
  node->AddElementWithText("price", price);
  return Item(node.release());
}

// --- heap vs stable-sort reference -------------------------------------------

/// The reference semantics: stable sort of the arrival sequence by the
/// directional numeric-aware key, truncated to k. Arrival order is
/// leaf-major (leaf 0's items first), matching how a union's branches
/// concatenate at whichever peer evaluates the consumer TopN.
struct Arrival {
  std::string key;
  uint32_t leaf;
  uint64_t idx;
  Item item;
};

std::vector<const xml::Node*> ReferenceTopK(std::vector<Arrival> arrivals,
                                            std::optional<uint64_t> k,
                                            bool ascending) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [&](const Arrival& a, const Arrival& b) {
                     const int cmp = CompareNumericAware(a.key, b.key);
                     return ascending ? cmp < 0 : cmp > 0;
                   });
  if (k.has_value() && arrivals.size() > *k) arrivals.resize(*k);
  std::vector<const xml::Node*> out;
  for (const auto& a : arrivals) out.push_back(a.item.get());
  return out;
}

TEST(TopKHeapTest, MatchesStableSortReferenceManySeeds) {
  const size_t seeds = EquivSeeds(200);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed);
    const size_t leaves = 1 + rng.NextBelow(4);
    std::vector<Arrival> arrivals;
    for (uint32_t leaf = 0; leaf < leaves; ++leaf) {
      const size_t n = rng.NextBelow(12);
      for (uint64_t i = 0; i < n; ++i) {
        // Small integer keys force plenty of ties; the tie-break is the
        // property under test.
        const std::string key = std::to_string(rng.NextBelow(6));
        arrivals.push_back({key, leaf, i, PricedItem(key)});
      }
    }
    std::optional<uint64_t> k;
    switch (rng.NextBelow(4)) {
      case 0: k = 0; break;
      case 1: k = 1 + rng.NextBelow(5); break;
      case 2: k = arrivals.size() + 1; break;  // larger than the input
      default: break;                          // unbounded (sort-only)
    }
    const bool asc = rng.NextBool();
    TopKHeap heap(k, asc);
    for (const auto& a : arrivals) {
      heap.Push(a.key, a.leaf, a.idx, a.item);
    }
    const ItemSet got = heap.Finish();
    const auto want = ReferenceTopK(arrivals, k, asc);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      // Pointer identity: the heap must retain the exact reference items.
      EXPECT_EQ(got[i].get(), want[i]) << "seed " << seed << " pos " << i;
    }
  }
}

TEST(TopKHeapTest, BoundTightensMonotonically) {
  const size_t seeds = EquivSeeds(100);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed);
    const bool asc = rng.NextBool();
    const uint64_t k = 1 + rng.NextBelow(6);
    TopKHeap heap(k, asc);
    TopKBoundRef prev;
    for (uint64_t i = 0; i < 64; ++i) {
      const std::string key = std::to_string(rng.NextBelow(10));
      const auto leaf = static_cast<uint32_t>(rng.NextBelow(3));
      heap.Push(key, leaf, i, PricedItem(key));
      if (!heap.full()) continue;
      const TopKBoundRef bound = heap.Bound();
      ASSERT_TRUE(bound.present) << "seed " << seed;
      if (prev.present) {
        // Each successive bound is at least as tight: a better key, or
        // the same key with a no-larger leaf.
        const int cmp = CompareNumericAware(bound.key, prev.key);
        const int dcmp = asc ? cmp : -cmp;
        EXPECT_TRUE(dcmp < 0 || (dcmp == 0 && bound.leaf <= prev.leaf))
            << "seed " << seed << " push " << i << ": bound (" << bound.key
            << "," << bound.leaf << ") loosened from (" << prev.key << ","
            << prev.leaf << ")";
      }
      prev = bound;
    }
  }
}

TEST(TopKPrunedTest, EqualKeyTieBreaksOnLeaf) {
  TopKBoundRef bound;
  bound.present = true;
  bound.key = "10";
  bound.leaf = 2;
  // A strictly better key always survives; a strictly worse one never.
  EXPECT_FALSE(engine::TopKPruned("9", 5, /*ascending=*/true, bound));
  EXPECT_TRUE(engine::TopKPruned("11", 0, /*ascending=*/true, bound));
  // Equal key: only a strictly smaller leaf can still displace the bound
  // (within the bound's own leaf, unshipped items have larger idx).
  EXPECT_FALSE(engine::TopKPruned("10", 1, /*ascending=*/true, bound));
  EXPECT_TRUE(engine::TopKPruned("10", 2, /*ascending=*/true, bound));
  EXPECT_TRUE(engine::TopKPruned("10", 3, /*ascending=*/true, bound));
  // No bound: nothing is prunable.
  EXPECT_FALSE(engine::TopKPruned("999", 9, true, TopKBoundRef{}));
}

// --- bounded-prefix continuation ---------------------------------------------

TEST(BoundedPrefixTest, ContinuationReassemblesThePrefix) {
  const size_t seeds = EquivSeeds(100);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.NextBelow(40);
    ItemSet items;
    for (size_t i = 0; i < n; ++i) {
      items.push_back(PricedItem(std::to_string(rng.NextBelow(8))));
    }
    TopKSpec spec{"price", rng.NextBool(), 1 + rng.NextBelow(10)};
    // Walk the stream with random window sizes; the concatenation must be
    // exactly the first min(k, n) positions of the score order.
    std::vector<size_t> shipped;
    uint64_t cont = 0;
    for (int round = 0; round < 200; ++round) {
      const uint64_t batch = 1 + rng.NextBelow(4);
      const auto slice = engine::BoundedPrefix(items, spec, TopKBoundRef{},
                                               /*leaf=*/0, cont, batch);
      EXPECT_EQ(slice.total, n) << "seed " << seed;
      for (size_t idx : slice.ship) shipped.push_back(idx);
      cont = slice.next_cont;
      if (!slice.more) {
        // The terminal slice credits exactly the ineligible remainder.
        EXPECT_EQ(slice.pruned, n - std::min<size_t>(n, spec.k))
            << "seed " << seed;
        break;
      }
      EXPECT_FALSE(slice.next_key.empty()) << "seed " << seed;
    }
    const auto reference = engine::BoundedPrefix(
        items, spec, TopKBoundRef{}, 0, 0, /*batch=*/0);
    EXPECT_FALSE(reference.more);
    ASSERT_EQ(shipped, reference.ship) << "seed " << seed;
    EXPECT_EQ(shipped.size(), std::min<size_t>(n, spec.k)) << "seed " << seed;
    // Score order: each shipped key is no worse than its successor.
    engine::FieldAccessor price("price");
    for (size_t i = 0; i + 1 < shipped.size(); ++i) {
      const std::string a(price.Eval(*items[shipped[i]]).value_or(""));
      const std::string b(price.Eval(*items[shipped[i + 1]]).value_or(""));
      const int cmp = CompareNumericAware(a, b);
      EXPECT_TRUE(spec.ascending ? cmp <= 0 : cmp >= 0) << "seed " << seed;
    }
  }
}

TEST(BoundedPrefixTest, BoundCutsTheStream) {
  // Ten rows priced 0..9 ascending; a bound at key "4" from a smaller
  // leaf admits strictly-better keys only (equal key loses to leaf 0).
  ItemSet items;
  for (int i = 0; i < 10; ++i) items.push_back(PricedItem(std::to_string(i)));
  TopKSpec spec{"price", true, 10};
  TopKBoundRef bound;
  bound.present = true;
  bound.key = "4";
  bound.leaf = 0;
  const auto slice =
      engine::BoundedPrefix(items, spec, bound, /*leaf=*/1, 0, 0);
  EXPECT_EQ(slice.ship.size(), 4u);  // prices 0,1,2,3
  EXPECT_FALSE(slice.more);
  EXPECT_EQ(slice.pruned, 6u);
}

// --- parser & codec round-trips ----------------------------------------------

TEST(TopKParserTest, UnboundedOrderByRoundTrips) {
  auto plan = query::Parse("select * from urn:X:Y order by price desc");
  ASSERT_TRUE(plan.ok());
  const PlanNode* topn = plan->root().get();
  ASSERT_EQ(topn->type(), algebra::OpType::kTopN);
  EXPECT_FALSE(topn->has_limit());
  EXPECT_EQ(topn->order_field(), "price");
  EXPECT_FALSE(topn->ascending());
  // Wire round-trip preserves unboundedness (no n attribute at all —
  // distinct from every finite limit, including 0).
  const std::string bytes = algebra::SerializePlan(*plan);
  EXPECT_EQ(bytes.find(" n="), std::string::npos);
  auto back = algebra::ParsePlan(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->root()->has_limit());
  EXPECT_TRUE(back->root()->Equals(*plan->root()));
}

TEST(TopKParserTest, BoundedLimitStaysDistinctFromUnbounded) {
  auto bounded = query::Parse("select * from urn:X:Y order by price limit 5");
  auto unbounded = query::Parse("select * from urn:X:Y order by price");
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(unbounded.ok());
  EXPECT_TRUE(bounded->root()->has_limit());
  EXPECT_EQ(bounded->root()->limit(), 5u);
  EXPECT_FALSE(bounded->root()->Equals(*unbounded->root()));
  // An unbounded TopN still evaluates as a full sort, not an empty set.
  engine::LocalStore store;
  ItemSet data;
  for (int i = 5; i > 0; --i) data.push_back(PricedItem(std::to_string(i)));
  auto sorted = engine::Evaluate(
      *PlanNode::TopN(std::nullopt, "price", true, PlanNode::XmlData(data)),
      &store);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->size(), 5u);
  EXPECT_EQ((*sorted)[0]->ChildText("price"), "1");
  EXPECT_EQ((*sorted)[4]->ChildText("price"), "5");
}

TEST(TopKCodecTest, AnnotationRoundTripsOnBothCodecs) {
  algebra::TopKBound tk;
  tk.order_field = "price";
  tk.ascending = false;
  tk.k = 7;
  tk.batch = 3;
  tk.cont = 12;
  tk.leaf = 2;
  tk.has_bound = true;
  tk.bound_key = "19.95";
  tk.bound_leaf = 1;
  auto node = PlanNode::Url("10.0.0.9:9020", "/data[id=c0]");
  node->annotations().topk = tk;
  algebra::Plan plan(PlanNode::Display("10.0.0.1:9020", std::move(node)));
  // The streaming codec and the DOM reference (tests/support).
  const std::string bytes = algebra::SerializePlan(plan);
  EXPECT_EQ(dom::SerializePlan(plan), bytes);  // byte-identical across codecs
  const Result<algebra::Plan> decoded[] = {algebra::ParsePlan(bytes),
                                           dom::ParsePlan(bytes)};
  for (const auto& back : decoded) {
    ASSERT_TRUE(back.ok()) << back.status();
    const auto& got =
        std::as_const(*back->root()->child(0)).annotations().topk;
    ASSERT_TRUE(got.has_value()) << bytes;
    EXPECT_EQ(*got, tk) << bytes;
  }
}

// --- end-to-end equivalence ---------------------------------------------------

/// What the bounded protocol must reproduce exactly: completeness and
/// the *ordered* result rows (a top-k answer is a ranking, so order is
/// part of the contract).
struct TopKFp {
  bool returned = false;
  bool complete = false;
  std::vector<std::string> rows;
  bool operator==(const TopKFp&) const = default;
};

/// The wire-visible side effects of one run.
struct WireObs {
  uint64_t query_bytes = 0;  ///< bytes on the wire after network build
  uint64_t topk_batches = 0;
  uint64_t topk_rows_pruned = 0;
  uint64_t topk_bytes_saved = 0;
  uint64_t topk_early_terminations = 0;
  uint64_t reply_decode_failures = 0;
  uint64_t unmatched_replies = 0;
  uint64_t decode_rejects = 0;
  /// Peer::CheckInvariants of every live peer once the run is idle.
  std::vector<std::string> violations;
};

TopKFp RunTopKQuery(net::Transport* transport, uint64_t seed, uint64_t k,
                    bool ascending, bool distributed, size_t sellers,
                    size_t items_per_seller, WireObs* obs = nullptr,
                    bool with_predicate = false) {
  const ScopedTopK knob(distributed);
  workload::GarageSaleNetworkParams params;
  params.num_sellers = sellers;
  params.items_per_seller = items_per_seller;
  params.seed = seed;
  auto net = workload::BuildGarageSaleNetwork(transport, params);
  const uint64_t bytes_after_build = transport->stats().bytes;
  TopKFp fp;
  const auto area = *ns::InterestArea::Parse("(USA,*)");
  // A predicate turns the remote branches into select(url) sub-plans;
  // without one each branch is a bare URL leaf, sent as a one-node
  // bounded subquery.
  algebra::ExprPtr pred =
      with_predicate ? algebra::FieldLess("price", "100") : nullptr;
  net.client->SubmitQuery(
      workload::MakeTopKQueryPlan(area, "price", ascending, k,
                                  std::move(pred)),
      [&](const QueryOutcome& o) {
        fp.returned = true;
        fp.complete = o.complete;
        for (const auto& item : o.items) {
          fp.rows.push_back(item->ChildText("name") + "|" +
                            item->ChildText("price"));
        }
      });
  transport->Run();
  if (obs != nullptr) {
    const net::NetStats& s = transport->stats();
    obs->query_bytes = s.bytes - bytes_after_build;
    obs->topk_batches = s.topk_batches;
    obs->topk_rows_pruned = s.topk_rows_pruned;
    obs->topk_bytes_saved = s.topk_bytes_saved;
    obs->topk_early_terminations = s.topk_early_terminations;
    obs->reply_decode_failures = s.reply_decode_failures;
    obs->unmatched_replies = s.unmatched_replies;
    obs->decode_rejects = s.decode_rejects;
    for (const auto& p : net.owned) {
      if (transport->IsFailed(p->id())) continue;
      for (std::string& v : p->CheckInvariants()) {
        obs->violations.push_back(std::move(v));
      }
    }
  }
  return fp;
}

// The acceptance sweep: across seeds, random k (including 1 and
// beyond-collection), both directions, the bounded protocol returns the
// bit-identical ranking the ship-everything reference returns — and the
// happy path never mis-correlates or fails to decode a reply.
TEST(DistributedTopK, MatchesUnboundedReferenceManySeeds) {
  const size_t seeds = EquivSeeds(60);
  uint64_t total_batches = 0;
  uint64_t total_pruned = 0;
  uint64_t total_early = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 977 + 11);
    const uint64_t ks[] = {1, 2, 3, 5, 10, 100};
    const uint64_t k = ks[rng.NextBelow(6)];
    const bool asc = rng.NextBool();
    const size_t sellers = 3 + rng.NextBelow(6);
    const bool with_pred = rng.NextBool(0.4);  // bounded subqueries too
    net::Simulator ref_sim;
    const TopKFp reference =
        RunTopKQuery(&ref_sim, seed, k, asc,
                     /*distributed=*/false, sellers, 8, nullptr, with_pred);
    ASSERT_TRUE(reference.returned) << "seed " << seed;
    ASSERT_TRUE(reference.complete) << "seed " << seed;
    // The ablated reference must never touch the top-k machinery.
    EXPECT_EQ(ref_sim.stats().topk_batches, 0u) << "seed " << seed;
    EXPECT_EQ(ref_sim.stats().topk_rows_pruned, 0u) << "seed " << seed;
    EXPECT_EQ(ref_sim.stats().topk_bytes_saved, 0u) << "seed " << seed;
    EXPECT_EQ(ref_sim.stats().topk_early_terminations, 0u) << "seed " << seed;

    net::Simulator sim;
    WireObs obs;
    const TopKFp got = RunTopKQuery(&sim, seed, k, asc, /*distributed=*/true,
                                    sellers, 8, &obs, with_pred);
    ASSERT_EQ(reference, got) << "seed " << seed << " k " << k;
    EXPECT_EQ(obs.reply_decode_failures, 0u) << "seed " << seed;
    EXPECT_EQ(obs.unmatched_replies, 0u) << "seed " << seed;
    EXPECT_EQ(obs.decode_rejects, 0u) << "seed " << seed;
    EXPECT_EQ(obs.violations, std::vector<std::string>{}) << "seed " << seed;
    total_batches += obs.topk_batches;
    total_pruned += obs.topk_rows_pruned;
    total_early += obs.topk_early_terminations;
  }
  // The sweep must actually exercise the protocol: bounded batches flow,
  // rows provably out of the top k stay home, and at least one source
  // somewhere is cut off early by the threshold test.
  EXPECT_GT(total_batches, 0u);
  EXPECT_GT(total_pruned, 0u);
  EXPECT_GT(total_early, 0u);
}

// Bounded subqueries carry plans like mqp and result messages do, and
// go through the same wire codec: with no faults each plan-carrying
// message is decoded exactly once, and plan_parses counts every decode.
TEST(DistributedTopK, SubqueryPlanDecodesAreCounted) {
  net::Simulator sim;
  const TopKFp got = RunTopKQuery(&sim, /*seed=*/3, /*k=*/5, /*ascending=*/true,
                                  /*distributed=*/true, /*sellers=*/5,
                                  /*items_per_seller=*/8, nullptr,
                                  /*with_predicate=*/true);
  ASSERT_TRUE(got.complete);
  const net::NetStats& s = sim.stats();
  const uint64_t subqueries = s.messages_by_kind.at(wire::kSubqueryKind);
  ASSERT_GT(subqueries, 0u);
  EXPECT_EQ(s.plan_parses, s.messages_by_kind.at(wire::kMqpKind) +
                               s.messages_by_kind.at(wire::kResultKind) +
                               subqueries);
}

// A top-k walk hop that cannot start a merge session — its frontier
// still holds an unresolved URN beside the data carried from earlier
// hops — forwards the plan without reading that data: no field accessor
// runs and no xml::Node is built.
TEST(DistributedTopK, HopWithoutSessionLeavesCarriedDataUnread) {
  const ScopedTopK knob(true);
  net::Simulator sim;
  PeerOptions ro;
  ro.name = "relay";
  Peer relay(&sim, ro);
  PeerOptions no;
  no.name = "next";
  Peer next(&sim, no);
  ItemSet carried;
  for (int i = 0; i < 6; ++i) {
    carried.push_back(PricedItem(std::to_string(40 - 3 * i)));
  }
  algebra::Plan plan(PlanNode::Display(
      next.address(),
      PlanNode::TopN(3, "price", true,
                     PlanNode::Union({PlanNode::XmlData(std::move(carried)),
                                      PlanNode::UrnRef("urn:ForSale:elsewhere",
                                                       next.address())}))));
  plan.set_query_id("walk-q");
  wire::Send(&sim, next.id(), relay.id(),
             {wire::kMqpKind, "walk-q", 0,
              net::MakePayload(algebra::SerializePlan(plan))});
  sim.Run();
  EXPECT_EQ(relay.counters().plans_received, 1u);
  EXPECT_EQ(relay.counters().plans_forwarded, 1u);
  EXPECT_EQ(relay.counters().field_accessor_hits, 0u);
  EXPECT_EQ(relay.counters().hop_dom_nodes_built, 0u);
}

// --- a walking plan over tied keys -------------------------------------------

Item NamedPricedItem(const std::string& name, int price) {
  auto node = xml::Node::Element("item");
  node->AddElementWithText("name", name);
  node->AddElementWithText("price", std::to_string(price));
  return Item(node.release());
}

/// What one walk over tied prices returned, and what the plans that left
/// its evaluating hops carried.
struct TieWalk {
  TopKFp fp;
  size_t bounded_unions = 0;  ///< bounded unions leaving evaluating hops
  size_t data_runs = 0;       ///< their runs of two or more data inputs
  std::vector<std::string> oversized;  ///< such runs over k rows
};

// A hand-built top-k walk. The client's plan is
//   TopN(k, price, union(distinct-union(R1, R2), union(S1, S2),
//                        urn@idx, S3, S4))
// and the URN stays unresolved until every URL leaf has been visited, so
// the plan walks the sellers (in address order: S3, S1, R2, S4, R1, S2)
// before `idx` binds the URN to T1..T3. Prices come from a few values, so
// keys tie across sellers; R1 and R2 each hold one item five times, which
// a distinct union keeps once.
TieWalk RunTieWalk(uint64_t k, bool ascending, bool distributed) {
  const ScopedTopK knob(distributed);
  net::Simulator sim;
  std::vector<std::unique_ptr<Peer>> peers;
  auto add = [&](const std::string& name) {
    PeerOptions o;
    o.name = name;
    o.roles.base = name != "idx";
    o.roles.index = name == "idx";
    peers.push_back(std::make_unique<Peer>(&sim, o));
    return peers.back().get();
  };
  auto hold = [](const std::string& name, std::vector<int> prices) {
    ItemSet items;
    for (size_t i = 0; i < prices.size(); ++i) {
      items.push_back(
          NamedPricedItem(name + "-" + std::to_string(i), prices[i]));
    }
    return items;
  };
  auto dup = [](const std::string& name, int price, int copies) {
    ItemSet items;
    for (int i = 0; i < copies; ++i) {
      items.push_back(NamedPricedItem(name, price));
    }
    return items;
  };
  const auto area = ns::MakeArea({"USA/OR", "*"});
  const std::string urn = "urn:ForSale:tied-prices";
  const std::string xpath = engine::LocalStore::CollectionXPath("c");
  Peer* s3 = add("s3");
  Peer* s1 = add("s1");
  Peer* r2 = add("r2");
  Peer* s4 = add("s4");
  Peer* r1 = add("r1");
  Peer* s2 = add("s2");
  Peer* idx = add("idx");
  s1->PublishCollection("c", area, hold("s1", {30, 20, 40, 20}));
  s2->PublishCollection("c", area, hold("s2", {20, 30, 20}));
  s3->PublishCollection("c", area, hold("s3", {40, 30, 30, 20}));
  s4->PublishCollection("c", area, hold("s4", {20, 40, 30}));
  ItemSet r1_items = dup("r1-a", 10, 5);
  r1_items.push_back(NamedPricedItem("r1-b", 20));
  r1->PublishCollection("c", area, r1_items);
  ItemSet r2_items = dup("r2-a", 10, 5);
  r2_items.push_back(NamedPricedItem("r2-b", 20));
  r2->PublishCollection("c", area, r2_items);
  const std::vector<std::vector<int>> t_prices = {
      {30, 20, 20}, {40, 20, 30}, {20, 30}};
  for (size_t t = 0; t < t_prices.size(); ++t) {
    const std::string name = "t" + std::to_string(t + 1);
    Peer* seller = add(name);
    seller->PublishNamed(urn, "c", hold(name, t_prices[t]));
    seller->AddBootstrap(idx->address());
    seller->JoinNetwork();
  }
  PeerOptions co;
  co.name = "client";
  Peer client(&sim, co);
  sim.Run();

  auto url = [&](const Peer* p) { return PlanNode::Url(p->address(), xpath); };
  algebra::Plan plan(PlanNode::Display(
      "", PlanNode::TopN(
              k, "price", ascending,
              PlanNode::Union(
                  {PlanNode::Union({url(r1), url(r2)}, /*distinct=*/true),
                   PlanNode::Union({url(s1), url(s2)}),
                   PlanNode::UrnRef(urn, idx->address()), url(s3),
                   url(s4)}))));
  TieWalk walk;
  sim.set_on_send([&](const net::Message& m) {
    if (m.kind != wire::kMqpKind) return;
    auto env = wire::DecodeEnvelope(m);
    ASSERT_TRUE(env.ok());
    auto sent = wire::ParsePlanShared(env->payload);
    ASSERT_TRUE(sent.ok()) << sent.status();
    const auto& visits = sent->provenance().entries();
    if (visits.empty() ||
        visits.back().action != algebra::ProvenanceAction::kEvaluated) {
      return;
    }
    algebra::ForEachNode(sent->root().get(), [&](const PlanNode* n) {
      if (n->type() != algebra::OpType::kUnion ||
          !n->annotations().topk.has_value()) {
        return;
      }
      ++walk.bounded_unions;
      const auto& in = n->children();
      for (size_t i = 0; i < in.size();) {
        size_t end = i;
        uint64_t rows = 0;
        while (end < in.size() && in[end]->IsConstant()) {
          rows += in[end++]->item_count();
        }
        if (end - i >= 2) {
          ++walk.data_runs;
          if (rows > k) {
            walk.oversized.push_back(visits.back().server + ": inputs " +
                                     std::to_string(i) + ".." +
                                     std::to_string(end - 1) + " hold " +
                                     std::to_string(rows) + " rows");
          }
        }
        i = std::max(end, i + 1);
      }
    });
  });
  client.SubmitQuery(std::move(plan), [&](const QueryOutcome& o) {
    walk.fp.returned = true;
    walk.fp.complete = o.complete;
    for (const auto& item : o.items) {
      walk.fp.rows.push_back(item->ChildText("name") + "|" +
                             item->ChildText("price"));
    }
  });
  sim.Run();
  return walk;
}

// Bounded unions on a walk (DESIGN.md §10): every k on both sides of
// each tie and both directions return the ablated ranking, and no run of
// two or more adjacent data inputs of a bounded union leaves an
// evaluating hop with more than k rows. A merge that reorders a run,
// reaches across a non-data input, or truncates a distinct union's
// branches before it deduplicates changes some ranking here.
TEST(DistributedTopK, WalkKeepsAtMostKRowsPerRunOverTiedKeys) {
  size_t runs_checked = 0;
  for (const bool asc : {true, false}) {
    for (uint64_t k = 1; k <= 12; ++k) {
      SCOPED_TRACE((asc ? "ascending k " : "descending k ") +
                   std::to_string(k));
      const TieWalk reference = RunTieWalk(k, asc, /*distributed=*/false);
      ASSERT_TRUE(reference.fp.returned);
      ASSERT_TRUE(reference.fp.complete);
      ASSERT_EQ(reference.fp.rows.size(), k);
      EXPECT_EQ(reference.bounded_unions, 0u);  // the reference stamps none
      const TieWalk got = RunTieWalk(k, asc, /*distributed=*/true);
      ASSERT_TRUE(got.fp.complete);
      EXPECT_EQ(got.fp.rows, reference.fp.rows);
      EXPECT_GT(got.bounded_unions, 0u);
      EXPECT_EQ(got.oversized, std::vector<std::string>{});
      runs_checked += got.data_runs;
    }
  }
  EXPECT_GT(runs_checked, 0u);
}

// Simulator and threaded runtime return the same ranking with the
// protocol on — arrival order of concurrent batches must not leak into
// the result (the shared (key, leaf, idx) order is arrival-free).
TEST(DistributedTopK, ThreadedRuntimeMatchesSimulatorManySeeds) {
  const size_t seeds = EquivSeeds(20);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    const uint64_t k = 1 + (seed % 7);
    const bool asc = seed % 2 == 0;
    net::Simulator sim;
    const TopKFp reference =
        RunTopKQuery(&sim, seed, k, asc, /*distributed=*/true, 6, 6);
    ASSERT_TRUE(reference.returned) << "seed " << seed;
    ASSERT_TRUE(reference.complete) << "seed " << seed;
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      ThreadedRuntime rt(RuntimeOptions{.num_threads = threads});
      const TopKFp got =
          RunTopKQuery(&rt, seed, k, asc, /*distributed=*/true, 6, 6);
      ASSERT_EQ(reference, got)
          << "seed " << seed << " threads " << threads;
      rt.Shutdown();
    }
  }
}

// k=10 over fat collections: the bounded protocol must put dramatically
// fewer bytes on the wire during the query phase than the reference,
// while returning the identical ranking.
TEST(DistributedTopK, ShipsFarFewerBytesThanReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    net::Simulator ref_sim;
    WireObs ref_obs;
    const TopKFp reference =
        RunTopKQuery(&ref_sim, seed, /*k=*/10, /*ascending=*/true,
                     /*distributed=*/false, 5, 80, &ref_obs);
    net::Simulator sim;
    WireObs obs;
    const TopKFp got = RunTopKQuery(&sim, seed, 10, true,
                                    /*distributed=*/true, 5, 80, &obs);
    ASSERT_EQ(reference, got) << "seed " << seed;
    ASSERT_TRUE(got.complete) << "seed " << seed;
    EXPECT_LT(obs.query_bytes, ref_obs.query_bytes / 2) << "seed " << seed;
    EXPECT_GT(obs.topk_rows_pruned, 0u) << "seed " << seed;
    EXPECT_GT(obs.topk_bytes_saved, 0u) << "seed " << seed;
  }
}

// PR 8 composition: under drop/dup/delay faults with client retries on,
// bounded subqueries are idempotent per continuation token — whenever the
// query completes, the ranking equals the clean ablated reference, and
// the same seed reproduces the same outcome.
TEST(DistributedTopK, ComposesWithFaultInjectionAndRetries) {
  const size_t seeds = EquivSeeds(15);
  size_t completed = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    net::Simulator ref_sim;
    const TopKFp reference = RunTopKQuery(&ref_sim, seed, /*k=*/5,
                                          /*ascending=*/true,
                                          /*distributed=*/false, 6, 6);
    TopKFp runs[2];
    for (int rep = 0; rep < 2; ++rep) {
      const ScopedTopK knob(true);
      net::Simulator sim;
      net::FaultPlan fault;
      fault.seed = seed;
      fault.spec.drop_rate = 0.03;
      fault.spec.dup_rate = 0.02;
      fault.spec.delay_rate = 0.02;
      net::FaultInjector fi(&sim, fault);
      workload::GarageSaleNetworkParams params;
      params.num_sellers = 6;
      params.items_per_seller = 6;
      params.seed = seed;
      auto net = workload::BuildGarageSaleNetwork(&fi, params);
      fi.Arm();
      TopKFp& fp = runs[rep];
      const auto area = *ns::InterestArea::Parse("(USA,*)");
      net.client->SubmitQuery(
          workload::MakeTopKQueryPlan(area, "price", true, 5),
          [&](const QueryOutcome& o) {
            fp.returned = true;
            fp.complete = o.complete;
            for (const auto& item : o.items) {
              fp.rows.push_back(item->ChildText("name") + "|" +
                                item->ChildText("price"));
            }
          });
      fi.Run();
      EXPECT_TRUE(fp.returned) << "seed " << seed;
      for (const auto& p : net.owned) {
        if (sim.IsFailed(p->id())) continue;
        EXPECT_EQ(p->CheckInvariants(), std::vector<std::string>{})
            << "seed " << seed;
      }
      if (fp.complete) {
        EXPECT_EQ(fp.rows, reference.rows) << "seed " << seed;
      }
    }
    ASSERT_EQ(runs[0], runs[1]) << "seed " << seed;  // fault determinism
    if (runs[0].complete) ++completed;
  }
  // The retry layer must actually rescue most faulted runs.
  EXPECT_GT(completed, seeds / 2);
}

// --- replica-id mint (DESIGN.md §4.3 pulls) ----------------------------------

// Replica ids come from a monotonic mint: after a drop, the next pull
// must not reuse the freed id and silently overwrite a live collection.
TEST(ReplicaMintTest, DropThenPullNeverReusesIds) {
  net::Simulator sim;
  PeerOptions so;
  so.name = "src";
  so.roles.base = true;
  Peer source(&sim, so);
  const auto area = *ns::InterestArea::Parse("(USA.OR,Music)");
  ItemSet items;
  for (int i = 0; i < 3; ++i) items.push_back(PricedItem(std::to_string(i)));
  source.PublishCollection("c0", area, items);

  PeerOptions io;
  io.name = "idx";
  io.roles.index = true;
  io.roles.authoritative = true;
  io.interest = *ns::InterestArea::Parse("(USA.OR,*)");
  Peer idx(&sim, io);
  source.AddBootstrap(idx.address());
  source.JoinNetwork();
  sim.Run();

  // The items the store's XPath `xpath` selects: one replica's, the first
  // collection's in insertion order ("/data[1]"), or all of them ("").
  auto replica_items_at = [&](const std::string& xpath) {
    auto r = idx.store().Fetch("", xpath);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->size() : size_t{0};
  };
  auto replica_items = [&](const std::string& id) {
    return replica_items_at(engine::LocalStore::CollectionXPath(id));
  };
  auto all_items = [&]() { return replica_items_at(""); };

  idx.PullIndexedData(/*delay_minutes=*/10);
  sim.Run();
  ASSERT_EQ(idx.replica_count(), 1u);
  ASSERT_EQ(replica_items("replica-0"), 3u);
  ASSERT_EQ(all_items(), 3u);

  idx.DropReplica("replica-0");
  EXPECT_EQ(idx.replica_count(), 0u);
  EXPECT_EQ(replica_items("replica-0"), 0u);
  EXPECT_EQ(all_items(), 0u);

  idx.PullIndexedData(10);
  sim.Run();
  ASSERT_EQ(idx.replica_count(), 1u);
  // The mint moved on: the new replica is replica-1, and replica-0 does
  // not silently come back (a size_t-based mint would reuse it and
  // overwrite whatever claimed the id in between).
  EXPECT_EQ(replica_items("replica-1"), 3u);
  EXPECT_EQ(replica_items("replica-0"), 0u);
  EXPECT_EQ(all_items(), 3u);
  // replica-0 is gone, not left empty: it was minted first, so it would
  // still lead the store's collections, and "/data[1]" would select none
  // of replica-1's items.
  EXPECT_EQ(replica_items_at("/data[1]"), 3u);
}

}  // namespace
}  // namespace mqp
