// C11 — million-peer substrate scale (src/net/ scheduler rework,
// DESIGN.md §7).
//
// Part A pins the scheduler claim with an A/B at 100k peers: the same
// deterministic ping workload (a large standing population of in-flight
// messages, every delivery forwarding once) runs under a bench-local
// binary-heap scheduler (HeapScheduler below: the simulator's scheduler
// before the calendar queue) and under net::Simulator's calendar queue +
// event pool, and we report events/sec and heap allocations per event
// for each. Shape checks (exit 1 on miss): calendar ≥ 5x heap
// events/sec, ~0 allocations per event on the calendar steady path, and
// pool hits == events scheduled once the pool is warm.
//
// Part B sweeps super-peer hierarchies from 10k to 1M peers (N super
// peers fronting M leaves each, catalog gossip on the root+super tier
// only) under sustained query + gossip load, reporting events/sec,
// substrate bytes/peer, RSS bytes/peer and the per-kind traffic table
// (printed via the interned-kind ForEachSorted — stable order, no map
// rebuilds).
//
// Flags: --ci caps the sweep at 100k peers and shrinks Part A so the
// whole binary fits in a CI smoke slot; --json=PATH writes
// BENCH_substrate.json for the workflow artifact.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "net/simulator.h"
#include "bench_util.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps it,
// so steady-phase deltas measure the true allocations/event of each
// scheduler (handler work included).
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace mqp;

namespace {

double WallSeconds() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now().time_since_epoch())
      .count();
}

// Resident set size, for the bytes/peer-including-peer-state row.
size_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long total = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<size_t>(resident) * 4096;
}

// --- Part A: scheduler A/B -------------------------------------------------

/// The baseline: the simulator's scheduler before the calendar queue, as
/// it was. Every event is one std::function closure (a delivery captures
/// its Message) in a std::priority_queue over (time, seq); sends pay the
/// simulator's stats, latency formula and failure checks, and a delivery
/// re-checks its destination at dispatch.
class HeapScheduler {
 public:
  net::PeerId Register(net::PeerNode* node) {
    nodes_.push_back(node);
    failed_.push_back(false);
    return static_cast<net::PeerId>(nodes_.size() - 1);
  }

  bool IsFailed(net::PeerId id) const {
    return id < failed_.size() && failed_[id];
  }

  void Send(net::Message msg) {
    if (msg.size_bytes == 0) {
      msg.size_bytes = msg.header.size() + msg.body().size();
    }
    if (msg.kind_id == net::kNoKind) msg.kind_id = net::InternKind(msg.kind);
    stats_.messages++;
    stats_.bytes += msg.size_bytes;
    stats_.messages_by_kind.Slot(msg.kind_id)++;
    stats_.bytes_by_kind.Slot(msg.kind_id) += msg.size_bytes;
    if (msg.from < failed_.size() && failed_[msg.from]) {
      stats_.drops_from_failed++;
      return;
    }
    if (msg.to >= nodes_.size() || failed_[msg.to]) {
      stats_.drops_to_failed++;
      return;
    }
    const double when = now_ + link_.latency_seconds +
                        static_cast<double>(msg.size_bytes) * inv_bps_;
    net::PeerNode* dest = nodes_[msg.to];
    const net::PeerId to = msg.to;
    Schedule(when, [this, dest, to, m = std::move(msg)]() {
      if (!IsFailed(to)) {
        dest->HandleMessage(m);
      } else {
        stats_.drops_to_failed++;
      }
    });
  }

  void Schedule(double when, std::function<void()> fn) {
    heap_.push(Event{when < now_ ? now_ : when, seq_++, std::move(fn)});
    stats_.events_scheduled++;
  }

  size_t Run() {
    size_t processed = 0;
    while (!heap_.empty()) {
      // top() is const; moving the closure out is safe because the
      // comparator reads only (time, seq), which the move leaves intact.
      Event ev = std::move(const_cast<Event&>(heap_.top()));
      heap_.pop();
      now_ = ev.time;
      ev.fn();
      ++processed;
    }
    return processed;
  }

  net::NetStats& stats() { return stats_; }

 private:
  struct Event {
    double time;
    uint64_t seq;  // FIFO tie-break for equal times
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  std::vector<net::PeerNode*> nodes_;
  std::vector<bool> failed_;
  net::LinkParams link_;
  double inv_bps_ = 1.0 / net::LinkParams{}.bytes_per_second;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  double now_ = 0;
  uint64_t seq_ = 0;
  net::NetStats stats_;
};

/// One PeerNode registered `n` times: every delivery forwards a fresh
/// ping to the next peer while the forward budget lasts, and snapshots
/// wall clock / allocation / stats counters at the steady-phase
/// boundaries from *inside* the handler (exact, no polling). `Sim` is
/// net::Simulator or HeapScheduler.
template <typename Sim>
class PingHub : public net::PeerNode {
 public:
  PingHub(Sim* sim, size_t n, uint64_t warm, uint64_t steady)
      : sim_(sim), n_(n), warm_(warm), steady_(steady),
        forwards_left_(warm + steady),
        ping_id_(net::InternKind("ping")) {}

  void HandleMessage(const net::Message& msg) override {
    if (forwards_left_ > 0) {
      --forwards_left_;
      net::Message m;
      m.from = msg.to;
      m.to = static_cast<net::PeerId>((msg.to + 1) % n_);
      m.kind = "ping";     // SSO: no allocation
      m.kind_id = ping_id_;  // pre-interned, like wire::Envelope does
      m.size_bytes = msg.size_bytes;  // chain keeps its phase offset
      sim_->Send(std::move(m));
    }
    ++processed_;
    if (processed_ == warm_) {
      t0_ = WallSeconds();
      allocs0_ = g_allocs.load(std::memory_order_relaxed);
      scheduled0_ = sim_->stats().events_scheduled;
      pool_hits0_ = sim_->stats().event_pool_hits;
    } else if (processed_ == warm_ + steady_) {
      t1_ = WallSeconds();
      allocs1_ = g_allocs.load(std::memory_order_relaxed);
      scheduled1_ = sim_->stats().events_scheduled;
      pool_hits1_ = sim_->stats().event_pool_hits;
    }
  }

  uint64_t processed() const { return processed_; }
  double steady_seconds() const { return t1_ - t0_; }
  uint64_t steady_allocs() const { return allocs1_ - allocs0_; }
  uint64_t steady_scheduled() const { return scheduled1_ - scheduled0_; }
  uint64_t steady_pool_hits() const { return pool_hits1_ - pool_hits0_; }

 private:
  Sim* sim_;
  size_t n_;
  uint64_t warm_, steady_;
  uint64_t forwards_left_;
  net::KindId ping_id_;
  uint64_t processed_ = 0;
  double t0_ = 0, t1_ = 0;
  uint64_t allocs0_ = 0, allocs1_ = 0;
  uint64_t scheduled0_ = 0, scheduled1_ = 0;
  uint64_t pool_hits0_ = 0, pool_hits1_ = 0;
};

struct AbResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
  uint64_t processed = 0;
  uint64_t messages = 0;
  uint64_t steady_scheduled = 0;
  uint64_t steady_pool_hits = 0;
  uint64_t calendar_resizes = 0;
};

template <typename Sim>
AbResult RunScheduler(size_t peers, size_t standing, uint64_t warm,
                      uint64_t steady) {
  Sim sim;
  PingHub<Sim> hub(&sim, peers, warm, steady);
  for (size_t i = 0; i < peers; ++i) sim.Register(&hub);

  // Standing population: `standing` chains split into 64 size classes
  // (size_bytes sets the transfer term of the latency and is carried
  // along the chain), injected class by class — the shape of a network
  // whose applications each speak their own message size. Delivery times
  // spread over 64 interleaving time lattices, so the scheduler sees a
  // dense multi-modal distribution, not one big tie.
  const size_t class_span = (standing + 63) / 64;
  for (size_t i = 0; i < standing; ++i) {
    net::Message m;
    m.from = static_cast<net::PeerId>(i % peers);
    m.to = static_cast<net::PeerId>((i * 7 + 1) % peers);
    m.kind = "ping";
    m.size_bytes = 64 + (i / class_span) * 64;
    sim.Send(std::move(m));
  }
  sim.Run();

  AbResult r;
  r.processed = hub.processed();
  r.messages = sim.stats().messages;
  r.events_per_sec =
      hub.steady_seconds() > 0 ? steady / hub.steady_seconds() : 0;
  r.allocs_per_event =
      static_cast<double>(hub.steady_allocs()) / static_cast<double>(steady);
  r.steady_scheduled = hub.steady_scheduled();
  r.steady_pool_hits = hub.steady_pool_hits();
  r.calendar_resizes = sim.stats().calendar_resizes;
  return r;
}

// --- Part B: super-peer sweep ----------------------------------------------

struct SweepPoint {
  const char* label;
  size_t supers;
  size_t leaves_per_super;
};

struct SweepResult {
  std::string label;
  size_t peers = 0;
  double build_seconds = 0;
  uint64_t build_events = 0;
  double load_seconds = 0;
  uint64_t load_events = 0;
  double load_events_per_sec = 0;
  size_t queries = 0;
  size_t queries_ok = 0;
  size_t substrate_bytes_per_peer = 0;
  size_t rss_bytes_per_peer = 0;
  double pool_hit_rate = 0;
  uint64_t calendar_resizes = 0;
  std::vector<std::pair<std::string, uint64_t>> kinds;
};

SweepResult RunSweepPoint(const SweepPoint& pt) {
  const size_t kCities = 16;
  net::Simulator sim;
  workload::SuperPeerNetworkParams params;
  params.num_super_peers = pt.supers;
  params.leaves_per_super = pt.leaves_per_super;
  params.cities_per_super = kCities;
  params.categories = 8;
  params.items_per_leaf = 1;
  params.seed = 7;
  params.sync_catalog_tier = true;
  params.sync.gossip_interval_seconds = 5;
  params.sync.entry_ttl_seconds = 600;
  params.sync.refresh_interval_seconds = 60;
  params.sync.horizon_seconds = 120;  // bounded gossip window

  SweepResult r;
  r.label = pt.label;

  const double rss0 = static_cast<double>(RssBytes());
  const double build_t0 = WallSeconds();
  auto net = workload::BuildSuperPeerNetwork(&sim, params);
  r.build_seconds = WallSeconds() - build_t0;
  r.build_events = sim.stats().events_scheduled;
  r.peers = sim.size();

  // Sustained load: city queries round-robin across regions while the
  // catalog tier gossips out its 120-simulated-second window.
  const size_t kQueries = 24;
  const double load_t0 = WallSeconds();
  for (size_t q = 0; q < kQueries; ++q) {
    const size_t s = q % pt.supers;
    const size_t c = (q * 7 + 3) % kCities;
    auto run = bench::RunAreaQuery(&sim, net.client,
                                   workload::SuperPeerCity(s, c));
    // Ground truth is closed-form: leaves of super s in city c.
    size_t expect = 0;
    for (size_t j = c; j < pt.leaves_per_super; j += kCities) ++expect;
    expect *= params.items_per_leaf;
    ++r.queries;
    if (run.ok && run.outcome.complete && run.outcome.items.size() == expect) {
      ++r.queries_ok;
    }
  }
  sim.Run();  // drain any remaining gossip ticks
  r.load_seconds = WallSeconds() - load_t0;
  r.load_events = sim.stats().events_scheduled - r.build_events;
  r.load_events_per_sec =
      r.load_seconds > 0 ? r.load_events / r.load_seconds : 0;

  r.substrate_bytes_per_peer = sim.SubstrateBytes() / sim.size();
  const double rss1 = static_cast<double>(RssBytes());
  r.rss_bytes_per_peer =
      rss1 > rss0 ? static_cast<size_t>((rss1 - rss0) / sim.size()) : 0;
  r.pool_hit_rate =
      sim.stats().events_scheduled
          ? static_cast<double>(sim.stats().event_pool_hits) /
                static_cast<double>(sim.stats().events_scheduled)
          : 0;
  r.calendar_resizes = sim.stats().calendar_resizes;
  sim.stats().messages_by_kind.ForEachSorted(
      [&](std::string_view kind, uint64_t count) {
        r.kinds.emplace_back(std::string(kind), count);
      });
  return r;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool ci = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) ci = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  bench::Header("C11", "million-peer substrate: calendar queue + event pool "
                       "+ super-peer sweep");

  // --- Part A -------------------------------------------------------------
  // The standing population is what separates the schedulers — the heap
  // pays O(log n) cache-cold levels per pop at depth 8M while the
  // calendar stays ~O(1) — so it is NOT reduced under --ci; only the
  // measured steady phase shrinks.
  const size_t kAbPeers = 100000;
  const size_t kStanding = size_t{1} << 23;  // in-flight messages
  const uint64_t kWarm = ci ? 500000 : 1000000;
  const uint64_t kSteady = ci ? 2000000 : 4000000;

  bench::Row("scheduler A/B: %zu peers, %zu standing messages, steady "
             "phase %llu events",
             kAbPeers, kStanding,
             static_cast<unsigned long long>(kSteady));
  AbResult heap =
      RunScheduler<HeapScheduler>(kAbPeers, kStanding, kWarm, kSteady);
  AbResult cal =
      RunScheduler<net::Simulator>(kAbPeers, kStanding, kWarm, kSteady);
  const double speedup =
      heap.events_per_sec > 0 ? cal.events_per_sec / heap.events_per_sec : 0;

  bench::Row("  %-14s %14s %16s", "scheduler", "events/sec", "allocs/event");
  bench::Row("  %-14s %14.0f %16.4f", "binary-heap", heap.events_per_sec,
             heap.allocs_per_event);
  bench::Row("  %-14s %14.0f %16.4f", "calendar", cal.events_per_sec,
             cal.allocs_per_event);
  bench::Row("  speedup %.2fx; calendar steady pool hits %llu / scheduled "
             "%llu; resizes %llu",
             speedup, static_cast<unsigned long long>(cal.steady_pool_hits),
             static_cast<unsigned long long>(cal.steady_scheduled),
             static_cast<unsigned long long>(cal.calendar_resizes));

  bool shape_ok = true;
  if (heap.processed != cal.processed || heap.messages != cal.messages) {
    bench::Row("SHAPE FAIL: schedulers diverged (%llu/%llu events, "
               "%llu/%llu messages)",
               static_cast<unsigned long long>(heap.processed),
               static_cast<unsigned long long>(cal.processed),
               static_cast<unsigned long long>(heap.messages),
               static_cast<unsigned long long>(cal.messages));
    shape_ok = false;
  }
  if (speedup < 5.0) {
    bench::Row("SHAPE FAIL: calendar speedup %.2fx < 5x", speedup);
    shape_ok = false;
  }
  if (cal.allocs_per_event > 0.01) {
    bench::Row("SHAPE FAIL: calendar steady path allocates (%.4f/event)",
               cal.allocs_per_event);
    shape_ok = false;
  }
  if (cal.steady_pool_hits != cal.steady_scheduled) {
    bench::Row("SHAPE FAIL: warm pool missed (%llu hits vs %llu scheduled)",
               static_cast<unsigned long long>(cal.steady_pool_hits),
               static_cast<unsigned long long>(cal.steady_scheduled));
    shape_ok = false;
  }

  // --- Part B -------------------------------------------------------------
  std::vector<SweepPoint> sweep = {
      {"10k", 100, 100},
      {"100k", 100, 1000},
  };
  if (!ci) sweep.push_back({"1M", 1000, 1000});

  std::vector<SweepResult> results;
  bench::Row("");
  bench::Row("  %-6s %9s %9s %11s %13s %11s %9s %8s", "sweep", "peers",
             "build_s", "events/sec", "subst_B/peer", "rss_B/peer",
             "queries", "pool%");
  for (const auto& pt : sweep) {
    SweepResult r = RunSweepPoint(pt);
    bench::Row("  %-6s %9zu %9.2f %11.0f %13zu %11zu %6zu/%-2zu %7.1f%%",
               r.label.c_str(), r.peers, r.build_seconds,
               r.load_events_per_sec, r.substrate_bytes_per_peer,
               r.rss_bytes_per_peer, r.queries_ok, r.queries,
               100.0 * r.pool_hit_rate);
    if (r.queries_ok != r.queries) {
      bench::Row("SHAPE FAIL: %zu/%zu queries wrong at %s", r.queries_ok,
                 r.queries, r.label.c_str());
      shape_ok = false;
    }
    results.push_back(std::move(r));
  }
  // Per-kind traffic of the largest point, in stable interned order.
  if (!results.empty()) {
    bench::Row("");
    bench::Row("  per-kind traffic at %s:", results.back().label.c_str());
    for (const auto& [kind, count] : results.back().kinds) {
      bench::Row("    %-16s %12llu", kind.c_str(),
                 static_cast<unsigned long long>(count));
    }
  }

  bench::Row("");
  bench::Row("shape check: %s", shape_ok ? "OK" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f) {
      std::fprintf(f, "{\n  \"bench\": \"c11_substrate_scale\",\n");
      std::fprintf(f, "  \"ci\": %s,\n", ci ? "true" : "false");
      std::fprintf(f,
                   "  \"scheduler_ab\": {\"peers\": %zu, \"standing\": %zu, "
                   "\"steady_events\": %llu,\n",
                   kAbPeers, kStanding,
                   static_cast<unsigned long long>(kSteady));
      std::fprintf(f,
                   "    \"heap_events_per_sec\": %.0f, "
                   "\"calendar_events_per_sec\": %.0f, \"speedup\": %.3f,\n",
                   heap.events_per_sec, cal.events_per_sec, speedup);
      std::fprintf(f,
                   "    \"heap_allocs_per_event\": %.4f, "
                   "\"calendar_allocs_per_event\": %.4f,\n",
                   heap.allocs_per_event, cal.allocs_per_event);
      std::fprintf(f,
                   "    \"steady_pool_hits\": %llu, \"steady_scheduled\": "
                   "%llu, \"calendar_resizes\": %llu},\n",
                   static_cast<unsigned long long>(cal.steady_pool_hits),
                   static_cast<unsigned long long>(cal.steady_scheduled),
                   static_cast<unsigned long long>(cal.calendar_resizes));
      std::fprintf(f, "  \"sweep\": [\n");
      for (size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"peers\": %zu, "
                     "\"build_seconds\": %.3f, \"build_events\": %llu, "
                     "\"load_events_per_sec\": %.0f, "
                     "\"substrate_bytes_per_peer\": %zu, "
                     "\"rss_bytes_per_peer\": %zu, \"queries\": %zu, "
                     "\"queries_ok\": %zu, \"pool_hit_rate\": %.4f, "
                     "\"calendar_resizes\": %llu, \"kinds\": {",
                     JsonEscape(r.label).c_str(), r.peers, r.build_seconds,
                     static_cast<unsigned long long>(r.build_events),
                     r.load_events_per_sec, r.substrate_bytes_per_peer,
                     r.rss_bytes_per_peer, r.queries, r.queries_ok,
                     r.pool_hit_rate,
                     static_cast<unsigned long long>(r.calendar_resizes));
        for (size_t k = 0; k < r.kinds.size(); ++k) {
          std::fprintf(f, "%s\"%s\": %llu", k ? ", " : "",
                       JsonEscape(r.kinds[k].first).c_str(),
                       static_cast<unsigned long long>(r.kinds[k].second));
        }
        std::fprintf(f, "}}%s\n", i + 1 < results.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"shape_ok\": %s\n}\n",
                   shape_ok ? "true" : "false");
      std::fclose(f);
      bench::Row("wrote %s", json_path.c_str());
    } else {
      bench::Row("could not open %s", json_path.c_str());
      shape_ok = false;
    }
  }
  return shape_ok ? 0 : 1;
}
