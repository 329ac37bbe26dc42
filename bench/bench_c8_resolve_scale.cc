// C8 — catalog resolution at production scale.
//
// The paper's premise is that query routing lives or dies on catalog
// lookups (§3.4 coverage search, §4.1 redundancy elimination). This bench
// measures catalogs of 1k/10k/100k interest-area entries in three modes:
//   * linear   — a bench-local scan: ForEachEntry over every live entry,
//                with an Overlaps test on each (the per-entry work the
//                catalog did before its area index, without the
//                resolution that follows),
//   * indexed  — a full ResolveArea over the AreaIndex: Euler-interval
//                probes, O(log n + k),
//   * cached   — repeated resolution of a hot (urn, area) key served from
//                the mutation-stamped binding cache.
// It also measures the gossip projection path (exact RemoveEntry + AddEntry
// per record) against the old erase_if/dup-scan storage model.
//
// The shape check at the end *requires* the ≥10x indexed-vs-linear speedup
// on the 10k-entry catalog, after checking that an AreaIndex over the same
// entries finds exactly the scan's matches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "mqp/mqp.h"

using namespace mqp;

namespace {

using catalog::Binding;
using catalog::Catalog;
using catalog::HoldingLevel;
using catalog::IndexEntry;
using ns::InterestArea;

// Synthetic 2-dim namespace: dim0 = states × cities ("s3/c7"), dim1 =
// merchandise groups ("g4"), sized so a city-level request matches a
// small, roughly constant number of entries at every catalog scale.
IndexEntry MakeEntry(size_t i, size_t width) {
  IndexEntry e;
  const size_t state = i % width;
  const size_t city = (i / width) % width;
  std::string area = "(s";
  area += std::to_string(state);
  area += ".c";
  area += std::to_string(city);
  area += ',';
  if (i % 5 == 0) {
    area += '*';
  } else {
    area += 'g';
    area += std::to_string(i % 7);
  }
  area += ')';
  if (i % 10 == 0) {
    // A multi-cell minority keeps the per-cell index paths honest.
    area += "+(s";
    area += std::to_string((state + 1) % width);
    area += ",g";
    area += std::to_string(i % 7);
    area += ')';
  }
  e.level = (i % 11 == 0) ? HoldingLevel::kIndex : HoldingLevel::kBase;
  e.area = *InterestArea::Parse(area);
  e.server = "10.0.0." + std::to_string(i) + ":9020";
  if (e.level == HoldingLevel::kBase) {
    e.xpath = "/data[id=c" + std::to_string(i) + "]";
  }
  return e;
}

size_t WidthFor(size_t n) {
  // width² distinct city paths ≈ n/8 → ~8 same-city entries per request.
  size_t w = 1;
  while (w * w < n / 8 + 1) ++w;
  return w;
}

Catalog MakeCatalog(size_t n) {
  Catalog cat;
  cat.SetAuthority(ns::MakeArea({"*", "*"}), /*authoritative=*/true);
  cat.set_use_binding_cache(false);
  cat.set_dimension_fields({"location", "category"});
  const size_t width = WidthFor(n);
  for (size_t i = 0; i < n; ++i) cat.AddEntry(MakeEntry(i, width));
  return cat;
}

std::vector<InterestArea> MakeRequests(size_t n) {
  const size_t width = WidthFor(n);
  std::vector<InterestArea> reqs;
  for (size_t i = 0; i < 16; ++i) {
    std::string loc = "s";
    loc += std::to_string(i % width);
    loc += "/c";
    loc += std::to_string((i * 3) % width);
    std::string merch = "g";
    merch += std::to_string(i % 7);
    reqs.push_back(ns::MakeArea({loc, merch}));
  }
  return reqs;
}

void ResolveLoop(benchmark::State& state, Catalog& cat) {
  const auto reqs = MakeRequests(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    Binding b = cat.ResolveArea(reqs[i++ % reqs.size()], "urn:x-mqp:bench");
    benchmark::DoNotOptimize(b);
  }
  const auto& rs = cat.resolve_stats();
  state.counters["entries_scanned/resolve"] = benchmark::Counter(
      static_cast<double>(rs.resolve_entries_scanned) /
      static_cast<double>(rs.area_resolves));
  state.counters["index_probes/resolve"] = benchmark::Counter(
      static_cast<double>(rs.resolve_index_probes) /
      static_cast<double>(rs.area_resolves));
}

/// The linear baseline: every live entry, in insertion order, tested
/// against `request`; the positions of the overlapping ones land in
/// `matches`.
void LinearScan(const Catalog& cat, const InterestArea& request,
                std::vector<uint32_t>* matches) {
  matches->clear();
  uint32_t pos = 0;
  cat.ForEachEntry([&](const IndexEntry& e) {
    if (e.area.Overlaps(request)) matches->push_back(pos);
    ++pos;
  });
}

void BM_ResolveAreaLinear(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Catalog cat = MakeCatalog(n);
  const auto reqs = MakeRequests(n);
  std::vector<uint32_t> matches;
  size_t i = 0;
  for (auto _ : state) {
    LinearScan(cat, reqs[i++ % reqs.size()], &matches);
    benchmark::DoNotOptimize(matches.data());
  }
  state.counters["entries_scanned/resolve"] =
      benchmark::Counter(static_cast<double>(cat.entry_count()));
}
BENCHMARK(BM_ResolveAreaLinear)->Arg(1024)->Arg(10240)->Arg(102400);

void BM_ResolveAreaIndexed(benchmark::State& state) {
  Catalog cat = MakeCatalog(static_cast<size_t>(state.range(0)));
  ResolveLoop(state, cat);
}
BENCHMARK(BM_ResolveAreaIndexed)->Arg(1024)->Arg(10240)->Arg(102400);

void BM_ResolveAreaCachedHot(benchmark::State& state) {
  Catalog cat = MakeCatalog(static_cast<size_t>(state.range(0)));
  cat.set_use_binding_cache(true);
  ResolveLoop(state, cat);
  state.counters["cache_hits"] = benchmark::Counter(
      static_cast<double>(cat.resolve_stats().binding_cache_hits));
}
BENCHMARK(BM_ResolveAreaCachedHot)->Arg(10240)->Arg(102400);

// The sync projection path: VersionedCatalog::RetireReplacedProjection →
// Catalog::RemoveEntry, then re-Project → AddEntry, once per applied
// gossip record. Indexed storage does both by key.
void BM_GossipProjectionChurn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Catalog cat = MakeCatalog(n);
  const size_t width = WidthFor(n);
  size_t i = 0;
  for (auto _ : state) {
    IndexEntry e = MakeEntry(i++ % n, width);
    benchmark::DoNotOptimize(cat.RemoveEntry(e));
    cat.AddEntry(e);
  }
}
BENCHMARK(BM_GossipProjectionChurn)->Arg(10240)->Arg(102400);

// Reference model of the pre-index storage (vector + dup-scan add +
// erase_if remove), for the trajectory comparison.
void BM_GossipProjectionChurnLinearRef(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t width = WidthFor(n);
  std::vector<IndexEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) entries.push_back(MakeEntry(i, width));
  size_t i = 0;
  for (auto _ : state) {
    IndexEntry e = MakeEntry(i++ % n, width);
    std::erase_if(entries, [&](const IndexEntry& x) { return x == e; });
    bool dup = false;
    for (const auto& x : entries) {
      if (x == e) {
        dup = true;
        break;
      }
    }
    if (!dup) entries.push_back(e);
    benchmark::DoNotOptimize(entries.size());
  }
}
BENCHMARK(BM_GossipProjectionChurnLinearRef)->Arg(10240)->Arg(102400);

// --- shape check ---------------------------------------------------------------

/// Mean seconds per call of `fn(request)` over `iters` calls cycling
/// through `reqs`.
template <typename Fn>
double SecondsPer(const std::vector<InterestArea>& reqs, size_t iters,
                  Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) fn(reqs[i % reqs.size()]);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(iters);
}

int ShapeCheck() {
  const size_t n = 10240;
  Catalog cat = MakeCatalog(n);
  const auto reqs = MakeRequests(n);
  // The index must find exactly what the scan finds: an AreaIndex over
  // the same entries (ids = insertion positions), its candidates
  // filtered by Overlaps, against the scan's matches.
  const std::vector<IndexEntry> entries = cat.entries();
  catalog::AreaIndex index;
  for (uint32_t id = 0; id < entries.size(); ++id) {
    index.Add(id, entries[id].area);
  }
  std::vector<uint32_t> scanned, found;
  for (const auto& req : reqs) {
    LinearScan(cat, req, &scanned);
    std::vector<uint32_t> candidates;
    index.Candidates(req, &candidates);
    found.clear();
    for (const uint32_t id : candidates) {
      if (entries[id].area.Overlaps(req)) found.push_back(id);
    }
    std::sort(found.begin(), found.end());
    if (found != scanned) {
      std::printf("FAIL: the index finds %zu entries overlapping %s, the "
                  "scan %zu\n",
                  found.size(), req.ToString().c_str(), scanned.size());
      return 1;
    }
  }
  auto resolve = [&](const InterestArea& req) {
    Binding b = cat.ResolveArea(req, "urn:x-mqp:bench");
    benchmark::DoNotOptimize(b);
  };
  auto scan = [&](const InterestArea& req) {
    LinearScan(cat, req, &scanned);
    benchmark::DoNotOptimize(scanned.data());
  };
  SecondsPer(reqs, 64, resolve);  // warm the sorted interval views
  const double t_linear = SecondsPer(reqs, 256, scan);
  const double t_indexed = SecondsPer(reqs, 4096, resolve);
  const double speedup = t_linear / t_indexed;
  std::printf(
      "\nShape check (ROADMAP: 'as fast as the hardware allows'): on a "
      "%zu-entry catalog\nthe interval-indexed coverage search resolves in "
      "%.1f us; a linear scan that only\ntests every entry for overlap "
      "takes %.1f us — %.1fx slower (acceptance floor:\n10x), and the "
      "index finds exactly the scan's matches; the binding cache then\n"
      "removes the search entirely for hot areas, and the gossip "
      "projection path\n(RemoveEntry per applied record) is keyed, not "
      "scanned.\n",
      n, t_indexed * 1e6, t_linear * 1e6, speedup);
  if (speedup < 10.0) {
    std::printf("FAIL: speedup %.1fx below the 10x acceptance floor\n",
                speedup);
    return 1;
  }
  std::printf("OK: >=10x indexed speedup, index matches the scan\n");
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
