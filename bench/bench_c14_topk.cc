// C14 — adaptive distributed top-k (DESIGN.md §10).
//
// A garage-sale network answers top-k-by-price interest-area queries
// twice per cell: once with the bounded, score-ordered, batched protocol
// (the distributed top-k sessions behind RouteOrDeliver) and once with
// the ablation knob off (the ship-everything reference, which forwards
// every in-area row through the plan). The sweep is
// k x collection-size x peer-count; each cell reports bytes on the wire
// during the query phase and rows shipped from the sources, distributed
// vs ablated — with result equality between the two runs gated in every
// cell (a top-k answer is a ranking, so the ordered rows must match
// bit-for-bit).
//
// Rows shipped is derived from the pruning counters: the protocol's
// accounting is exhaustive (server-side terminal slices credit the rows
// they prove dead, the coordinator credits the remainder of
// early-terminated streams), so shipped = in-area total - pruned. The
// ablated reference ships the whole in-area total by construction.
//
// Shape checks (enforced, nonzero exit on failure):
//   * >= 10x bytes-on-wire reduction vs ablated at k=10, N=10k per peer,
//   * result equality distributed vs ablated in every cell,
//   * topk_rows_pruned > 0 wherever the collections outnumber k,
//   * the ablated reference never touches the top-k machinery (all four
//     topk counters zero),
//   * zero decode failures / unmatched replies on this fault-free path.
//
// Flags: --ci shrinks the sweep for a CI smoke slot (the k=10, N=10k
// shape cell always runs); --json=PATH writes BENCH_topk.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/simulator.h"
#include "optimizer/rewrites.h"
#include "bench_util.h"

using namespace mqp;

namespace {

struct Cell {
  size_t sellers = 0;
  size_t items_per_seller = 0;
  uint64_t k = 0;
  bool distributed = false;

  bool complete = false;
  std::vector<std::string> rows;  // ordered "name|price" result ranking
  uint64_t in_area_total = 0;     // ground-truth rows inside the area
  uint64_t query_bytes = 0;       // wire bytes after the network build
  uint64_t rows_shipped = 0;
  uint64_t batches = 0;
  uint64_t pruned = 0;
  uint64_t bytes_saved = 0;
  uint64_t early_terminations = 0;
  uint64_t decode_failures = 0;
  uint64_t unmatched = 0;
};

Cell RunCell(size_t sellers, size_t items_per_seller, uint64_t k,
             bool distributed, uint64_t seed) {
  Cell cell;
  cell.sellers = sellers;
  cell.items_per_seller = items_per_seller;
  cell.k = k;
  cell.distributed = distributed;

  const bool saved_knob = optimizer::use_distributed_topk();
  optimizer::set_use_distributed_topk(distributed);

  net::Simulator sim;
  workload::GarageSaleNetworkParams params;
  params.num_sellers = sellers;
  params.items_per_seller = items_per_seller;
  params.seed = seed;
  auto net = workload::BuildGarageSaleNetwork(&sim, params);
  const auto area = *ns::InterestArea::Parse("(USA,*)");
  cell.in_area_total =
      workload::GarageSaleGenerator::CountInArea(net.all_items, area);
  const uint64_t bytes_after_build = sim.stats().bytes;

  net.client->SubmitQuery(
      workload::MakeTopKQueryPlan(area, "price", /*ascending=*/true, k),
      [&](const peer::QueryOutcome& o) {
        cell.complete = o.complete;
        for (const auto& item : o.items) {
          cell.rows.push_back(item->ChildText("name") + "|" +
                              item->ChildText("price"));
        }
      });
  sim.Run();
  optimizer::set_use_distributed_topk(saved_knob);

  const net::NetStats& st = sim.stats();
  cell.query_bytes = st.bytes - bytes_after_build;
  cell.batches = st.topk_batches;
  cell.pruned = st.topk_rows_pruned;
  cell.bytes_saved = st.topk_bytes_saved;
  cell.early_terminations = st.topk_early_terminations;
  cell.decode_failures = st.reply_decode_failures;
  cell.unmatched = st.unmatched_replies;
  cell.rows_shipped = distributed ? cell.in_area_total - cell.pruned
                                  : cell.in_area_total;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool ci = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) ci = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  bench::Header("C14", "adaptive distributed top-k: bounded batched "
                       "subqueries vs the ship-everything reference");

  const uint64_t seed = 1400;
  std::vector<size_t> seller_counts = ci ? std::vector<size_t>{4}
                                         : std::vector<size_t>{4, 8};
  std::vector<size_t> sizes = {1000, 10000};
  std::vector<uint64_t> ks = {1, 10, 100};

  bench::Row("sweep: sellers x items/seller x k, top-k by price over "
             "(USA,*), distributed vs ablated, seed %llu",
             static_cast<unsigned long long>(seed));
  bench::Row("  %-7s %-9s %5s %12s %12s %8s %9s %8s %7s %7s",
             "sellers", "items", "k", "bytes_dist", "bytes_ref", "ratio",
             "shipped", "pruned", "batch", "early");

  bool shape_ok = true;
  bool saw_10x_cell = false;
  struct Pair {
    Cell dist;
    Cell ref;
  };
  std::vector<Pair> pairs;

  for (size_t sellers : seller_counts) {
    for (size_t items : sizes) {
      for (uint64_t k : ks) {
        Pair p;
        p.dist = RunCell(sellers, items, k, /*distributed=*/true, seed);
        p.ref = RunCell(sellers, items, k, /*distributed=*/false, seed);

        // Result equality is the gate everything else stands on.
        if (!p.dist.complete || !p.ref.complete) {
          bench::Row("SHAPE FAIL: incomplete query at sellers=%zu "
                     "items=%zu k=%llu",
                     sellers, items, static_cast<unsigned long long>(k));
          shape_ok = false;
        }
        if (p.dist.rows != p.ref.rows) {
          bench::Row("SHAPE FAIL: ranking mismatch vs ablated at "
                     "sellers=%zu items=%zu k=%llu",
                     sellers, items, static_cast<unsigned long long>(k));
          shape_ok = false;
        }
        // The ablated reference must never touch the top-k machinery.
        if (p.ref.batches != 0 || p.ref.pruned != 0 ||
            p.ref.bytes_saved != 0 || p.ref.early_terminations != 0) {
          bench::Row("SHAPE FAIL: ablated run touched top-k counters at "
                     "sellers=%zu items=%zu k=%llu",
                     sellers, items, static_cast<unsigned long long>(k));
          shape_ok = false;
        }
        if (p.dist.decode_failures != 0 || p.dist.unmatched != 0 ||
            p.ref.decode_failures != 0 || p.ref.unmatched != 0) {
          bench::Row("SHAPE FAIL: decode failures / unmatched replies on "
                     "the fault-free path");
          shape_ok = false;
        }
        // Wherever the sources hold far more than k rows, pruning must
        // actually fire.
        if (p.dist.in_area_total > 10 * k && p.dist.pruned == 0) {
          bench::Row("SHAPE FAIL: no rows pruned at sellers=%zu items=%zu "
                     "k=%llu (in-area total %llu)",
                     sellers, items, static_cast<unsigned long long>(k),
                     static_cast<unsigned long long>(p.dist.in_area_total));
          shape_ok = false;
        }
        // The headline claim: >= 10x fewer bytes at k=10, N=10k/peer.
        if (k == 10 && items == 10000) {
          saw_10x_cell = true;
          if (p.dist.query_bytes * 10 > p.ref.query_bytes) {
            bench::Row("SHAPE FAIL: only %.1fx bytes reduction at k=10, "
                       "N=10k/peer (need >= 10x)",
                       p.dist.query_bytes == 0
                           ? 0.0
                           : static_cast<double>(p.ref.query_bytes) /
                                 static_cast<double>(p.dist.query_bytes));
            shape_ok = false;
          }
        }

        const double ratio =
            p.dist.query_bytes == 0
                ? 0.0
                : static_cast<double>(p.ref.query_bytes) /
                      static_cast<double>(p.dist.query_bytes);
        bench::Row("  %-7zu %-9zu %5llu %12llu %12llu %7.1fx %4llu/%-4llu "
                   "%8llu %7llu %7llu",
                   sellers, items, static_cast<unsigned long long>(k),
                   static_cast<unsigned long long>(p.dist.query_bytes),
                   static_cast<unsigned long long>(p.ref.query_bytes), ratio,
                   static_cast<unsigned long long>(p.dist.rows_shipped),
                   static_cast<unsigned long long>(p.ref.rows_shipped),
                   static_cast<unsigned long long>(p.dist.pruned),
                   static_cast<unsigned long long>(p.dist.batches),
                   static_cast<unsigned long long>(p.dist.early_terminations));
        pairs.push_back(std::move(p));
      }
    }
  }
  if (!saw_10x_cell) {
    bench::Row("SHAPE FAIL: sweep never ran the k=10, N=10k shape cell");
    shape_ok = false;
  }

  bench::Row("");
  bench::Row("shape check: %s", shape_ok ? "OK" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f) {
      std::fprintf(f, "{\n  \"bench\": \"c14_topk\",\n");
      std::fprintf(f, "  \"ci\": %s,\n", ci ? "true" : "false");
      std::fprintf(f, "  \"cells\": [\n");
      for (size_t i = 0; i < pairs.size(); ++i) {
        const auto& p = pairs[i];
        const double ratio =
            p.dist.query_bytes == 0
                ? 0.0
                : static_cast<double>(p.ref.query_bytes) /
                      static_cast<double>(p.dist.query_bytes);
        std::fprintf(
            f,
            "    {\"sellers\": %zu, \"items_per_seller\": %zu, \"k\": %llu, "
            "\"in_area_total\": %llu, "
            "\"bytes_distributed\": %llu, \"bytes_ablated\": %llu, "
            "\"bytes_ratio\": %.2f, "
            "\"rows_shipped_distributed\": %llu, "
            "\"rows_shipped_ablated\": %llu, "
            "\"topk_batches\": %llu, \"topk_rows_pruned\": %llu, "
            "\"topk_bytes_saved\": %llu, "
            "\"topk_early_terminations\": %llu, "
            "\"results_equal\": %s}%s\n",
            p.dist.sellers, p.dist.items_per_seller,
            static_cast<unsigned long long>(p.dist.k),
            static_cast<unsigned long long>(p.dist.in_area_total),
            static_cast<unsigned long long>(p.dist.query_bytes),
            static_cast<unsigned long long>(p.ref.query_bytes), ratio,
            static_cast<unsigned long long>(p.dist.rows_shipped),
            static_cast<unsigned long long>(p.ref.rows_shipped),
            static_cast<unsigned long long>(p.dist.batches),
            static_cast<unsigned long long>(p.dist.pruned),
            static_cast<unsigned long long>(p.dist.bytes_saved),
            static_cast<unsigned long long>(p.dist.early_terminations),
            p.dist.rows == p.ref.rows ? "true" : "false",
            i + 1 < pairs.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f, "  \"shape_ok\": %s\n}\n", shape_ok ? "true" : "false");
      std::fclose(f);
      bench::Row("wrote %s", json_path.c_str());
    } else {
      bench::Row("could not open %s", json_path.c_str());
    }
  }
  return shape_ok ? 0 : 1;
}
