// bench_e2e — the repository's end-to-end benchmark (BENCHMARK.json).
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--count-only] [--spans-dir <dir>]
//
// Workloads (all open loops on a virtual-time burst schedule; the network
// and its churn are fixed, the seed picks the order of the queries):
//   mix-sim          garage-sale network + Figure-3 CD market on
//                    net::Simulator; every burst is 3 cell, 1 state-area,
//                    1 priced state-area, 2 top-k and 1 join query.
//   mix-threaded     the same network, seed and schedule on
//                    runtime::ThreadedRuntime (workers + the driving
//                    thread <= nproc).
//   churn-crowd-sim  200 small sellers with gossip sync on net::Simulator,
//                    workload::ChurnScenario crash/depart/join events,
//                    narrow area queries, and a 2x flash crowd on
//                    a hot region in every 40-burst cycle, with a
//                    high-priority slice and the service-time model on.
//
// A run builds, joins and warms up the network five times (setup_s is
// the median; the last network is kept), then runs a timed window of at
// least --seconds (half of it with --trace 1). The first `count_bursts`
// bursts of the window are the count window: every counted metric (bytes,
// messages, completion, virtual latency, per-layer counts) comes from it,
// so on the simulator the counts repeat exactly for a seed. With
// --trace 1 the run also builds a traced network behind
// e2e::TracingTransport, runs the same schedule, and reports the per-layer
// metrics from it; end-to-end metrics always
// come from the untraced window. --count-only runs just the count windows
// and prints every counted metric (the repeat guard uses it).
//
// Every query's answer is checked against ground truth. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/operator.h"
#include "net/simulator.h"
#include "runtime/threaded_runtime.h"
#include "tracing.h"
#include "workload/cd_market.h"
#include "workload/churn.h"
#include "workload/garage_sale.h"
#include "workload/network_builder.h"
#include "xml/writer.h"

namespace {

using namespace mqp;
using algebra::ItemSet;
using algebra::PlanNode;
using e2e::NowNs;

// ------------------------------------------------------------ workloads

enum class Family { kCell, kArea, kAreaPrice, kTopK, kJoin, kNarrow, kHot };

struct WorkloadSpec {
  const char* name;
  bool threaded;
  bool churn;
  double burst_interval;  ///< virtual seconds between bursts
  size_t warm_bursts;     ///< untimed warm-up (part of setup)
  size_t count_bursts;    ///< the count window, in bursts
};

const WorkloadSpec kWorkloads[] = {
    {"mix-sim", false, false, 0.25, 24, 125},
    {"mix-threaded", true, false, 0.25, 24, 125},
    {"churn-crowd-sim", false, true, 0.5, 240, 600},
};

// One mix burst: cheap cell lookups, state-wide plans that visit every
// seller of a state, bounded top-k sessions and a Figure-3 join.
constexpr Family kMixBurst[] = {Family::kCell, Family::kArea,
                                Family::kTopK, Family::kCell,
                                Family::kAreaPrice, Family::kJoin,
                                Family::kCell, Family::kTopK};
constexpr size_t kMixHpEvery = 16;   ///< every 16th mix query is priority 1
constexpr size_t kCrowdCycle = 40;   ///< churn bursts per flash-crowd cycle
constexpr size_t kCrowdBegin = 20;   ///< crowd bursts: [20, 30) of a cycle
constexpr size_t kCrowdEnd = 30;
constexpr size_t kCrowdHpEvery = 5;  ///< every 5th hot query is priority 1
constexpr uint64_t kTopKRows = 5;
/// The timed window submits at least this many queries, so latency_p99_ms
/// always has at least ten samples beyond it.
constexpr size_t kMinQueries = 1200;
constexpr size_t kMaxCaptures = 400;
constexpr int kSetups = 5;
constexpr double kSliceSeconds = 1.0;     ///< virtual time per Run() step
constexpr double kGiveUpSeconds = 400.0;  ///< past the last burst
// The network data and its churn events are fixed; --seed drives the query
// schedule. Drawing the network or the churn from the seed too would move
// the per-query cost by whatever the seed happened to populate or crash,
// swamping every run-to-run comparison.
constexpr uint64_t kNetworkSeed = 2003;
const char* const kForSaleUrn = "urn:ForSale:Portland-CDs";
const char* const kTrackUrn = "urn:CD:TrackListings";

struct QuerySpec {
  Family family = Family::kCell;
  ns::InterestArea area;
  std::string max_price;
  /// Ground truth: the item count (area families), the ordered top-k
  /// price keys, or the sorted serialized join rows.
  size_t expect_count = 0;
  std::vector<std::string> expect_rows;
};

std::vector<std::string> Prices(const ItemSet& items) {
  std::vector<std::string> out;
  for (const auto& i : items) out.push_back(i->ChildText("price"));
  return out;
}

std::vector<std::string> SortedRows(const ItemSet& items) {
  std::vector<std::string> out;
  for (const auto& i : items) out.push_back(xml::Serialize(*i));
  std::sort(out.begin(), out.end());
  return out;
}

ItemSet InArea(const ItemSet& all, const ns::InterestArea& area) {
  ItemSet out;
  for (const auto& i : all) {
    if (workload::GarageSaleGenerator::ItemInArea(*i, area)) out.push_back(i);
  }
  return out;
}

ItemSet MustEvaluate(const PlanNode& plan) {
  auto items = engine::Evaluate(plan);
  if (!items.ok()) {
    std::fprintf(stderr, "bench_e2e: ground-truth evaluation failed\n");
    std::exit(2);
  }
  return std::move(items).value();
}

bool Verify(const QuerySpec& q, const ItemSet& items) {
  switch (q.family) {
    case Family::kTopK:
      return Prices(items) == q.expect_rows;
    case Family::kJoin:
      return SortedRows(items) == q.expect_rows;
    case Family::kAreaPrice:
      for (const auto& i : items) {
        if (std::strtod(i->ChildText("price").c_str(), nullptr) >=
            std::strtod(q.max_price.c_str(), nullptr)) {
          return false;
        }
      }
      [[fallthrough]];
    default:
      for (const auto& i : items) {
        if (!workload::GarageSaleGenerator::ItemInArea(*i, q.area)) {
          return false;
        }
      }
      // Under churn the holdings move, so only containment is checked.
      return q.family == Family::kNarrow || q.family == Family::kHot ||
             items.size() == q.expect_count;
  }
}

algebra::Plan MakePlan(const QuerySpec& q, const ItemSet& favorites) {
  switch (q.family) {
    case Family::kAreaPrice:
      return workload::MakeAreaQueryPlan(
          q.area, algebra::FieldLess("price", q.max_price));
    case Family::kTopK:
      return workload::MakeTopKQueryPlan(q.area, "price", true, kTopKRows);
    case Family::kJoin:
      return workload::MakeFigure3Plan(favorites, kForSaleUrn, kTrackUrn, "",
                                       q.max_price);
    default:
      return workload::MakeAreaQueryPlan(q.area);
  }
}

peer::PeerOptions ClientOptions(const std::string& name) {
  peer::PeerOptions o;
  o.name = name;
  o.dimension_fields = {"location", "category"};
  o.interest = ns::InterestArea(
      ns::InterestCell({ns::CategoryPath(), ns::CategoryPath()}));
  return o;
}

/// One built network with its query pool, on one transport stack.
struct World {
  std::unique_ptr<net::Simulator> sim;
  std::unique_ptr<runtime::ThreadedRuntime> rt;
  std::unique_ptr<e2e::TracingTransport> tracer;
  net::Transport* t = nullptr;  ///< what the peers talk to
  workload::GarageSaleNetwork net;
  std::vector<std::unique_ptr<peer::Peer>> extra;  ///< clients, CD market
  std::vector<peer::Peer*> clients;
  peer::Peer* cd_client = nullptr;
  ItemSet favorites;
  std::unique_ptr<workload::ChurnScenario> churn;
  std::map<Family, std::vector<QuerySpec>> pool;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  // Workers must stop before the peers they deliver to are destroyed.
  ~World() {
    if (rt) rt->Shutdown();
  }

  std::vector<peer::Peer*> AllPeers() const {
    std::vector<peer::Peer*> all;
    for (const auto& p : net.owned) all.push_back(p.get());
    for (const auto& p : extra) all.push_back(p.get());
    return all;
  }

  peer::Peer* AddClient(const std::string& name, peer::Peer* bootstrap) {
    extra.push_back(std::make_unique<peer::Peer>(t, ClientOptions(name)));
    extra.back()->AddBootstrap(bootstrap->address());
    return extra.back().get();
  }
};

void AddCellPool(World* w, Family family) {
  std::set<std::string> seen;
  for (const auto& s : w->net.seller_specs) {
    QuerySpec q;
    q.family = family;
    q.area = ns::InterestArea(s.cell);
    if (!seen.insert(q.area.ToString()).second) continue;
    q.expect_count =
        workload::GarageSaleGenerator::CountInArea(w->net.all_items, q.area);
    w->pool[family].push_back(std::move(q));
  }
}

void BuildMix(World* w) {
  workload::GarageSaleNetworkParams gp;
  gp.num_sellers = 40;
  gp.items_per_seller = 8;
  gp.seed = kNetworkSeed;
  gp.client_template = ClientOptions("client-0");
  w->net = workload::BuildGarageSaleNetwork(w->t, gp);
  w->clients.push_back(w->net.client);
  for (int c = 1; c < 4; ++c) {
    w->clients.push_back(
        w->AddClient("client-" + std::to_string(c), w->net.top_meta));
  }

  // The Figure-3 CD market: a resolver, CD sellers, the track listings.
  workload::CdMarketGenerator cd(kNetworkSeed);
  const auto titles = cd.MakeTitles(40);
  peer::PeerOptions ro;
  ro.name = "cd-resolver";
  ro.roles.index = true;
  w->extra.push_back(std::make_unique<peer::Peer>(w->t, ro));
  peer::Peer* resolver = w->extra.back().get();
  ItemSet all_cds;
  for (int s = 0; s < 4; ++s) {
    peer::PeerOptions o;
    o.name = "cd-seller-" + std::to_string(s);
    o.roles.base = true;
    w->extra.push_back(std::make_unique<peer::Peer>(w->t, o));
    peer::Peer* seller = w->extra.back().get();
    const ItemSet cds = cd.MakeSellerCds(titles, o.name, 20);
    all_cds.insert(all_cds.end(), cds.begin(), cds.end());
    seller->PublishNamed(kForSaleUrn, "cds", cds);
    seller->AddBootstrap(resolver->address());
    seller->JoinNetwork();
  }
  peer::PeerOptions to;
  to.name = "cddb";
  to.roles.base = true;
  w->extra.push_back(std::make_unique<peer::Peer>(w->t, to));
  peer::Peer* tracklist = w->extra.back().get();
  const ItemSet listings = cd.MakeTrackListings(titles, 4);
  tracklist->PublishNamed(kTrackUrn, "listings", listings);
  tracklist->AddBootstrap(resolver->address());
  tracklist->JoinNetwork();
  w->t->Run();
  peer::PeerOptions co;
  co.name = "cd-client";
  w->extra.push_back(std::make_unique<peer::Peer>(w->t, co));
  w->cd_client = w->extra.back().get();
  w->cd_client->AddBootstrap(resolver->address());
  w->favorites = cd.MakeFavoriteSongs(listings, 10);

  AddCellPool(w, Family::kCell);
  for (const char* state : {"USA/OR", "USA/WA", "USA/CA", "France"}) {
    QuerySpec q;
    q.area = ns::MakeArea({state, "*"});
    const ItemSet in_area = InArea(w->net.all_items, q.area);
    q.family = Family::kArea;
    q.expect_count = in_area.size();
    w->pool[Family::kArea].push_back(q);

    q.family = Family::kAreaPrice;
    q.max_price = "60";
    q.expect_count =
        MustEvaluate(*PlanNode::Select(algebra::FieldLess("price", q.max_price),
                                       PlanNode::XmlData(in_area)))
            .size();
    w->pool[Family::kAreaPrice].push_back(q);
  }
  for (const char* area : {"(USA,*)", "(USA.OR,*)", "(USA.WA,*)",
                           "(USA.CA,*)"}) {
    QuerySpec q;
    q.family = Family::kTopK;
    q.area = *ns::InterestArea::Parse(area);
    q.expect_rows = Prices(MustEvaluate(*PlanNode::TopN(
        kTopKRows, "price", true,
        PlanNode::XmlData(InArea(w->net.all_items, q.area)))));
    w->pool[Family::kTopK].push_back(std::move(q));
  }
  for (const char* price : {"8", "12", "16"}) {
    QuerySpec q;
    q.family = Family::kJoin;
    q.max_price = price;
    // Ground truth: the same plan with its URNs bound to the full
    // collections, evaluated locally.
    algebra::Plan plan = workload::MakeFigure3Plan(
        w->favorites, kForSaleUrn, kTrackUrn, "", price);
    std::vector<PlanNode*> stack = {plan.root().get()};
    while (!stack.empty()) {
      PlanNode* n = stack.back();
      stack.pop_back();
      if (n->type() == algebra::OpType::kUrn) {
        n->MorphToData(n->urn() == kForSaleUrn ? all_cds : listings);
        continue;
      }
      for (const auto& c : n->children()) stack.push_back(c.get());
    }
    q.expect_rows = SortedRows(MustEvaluate(*plan.root()->child(0)));
    w->pool[Family::kJoin].push_back(std::move(q));
  }
}

void BuildChurnCrowd(World* w) {
  workload::GarageSaleNetworkParams gp;
  gp.num_sellers = 200;
  gp.items_per_seller = 3;
  gp.seed = kNetworkSeed;
  gp.client_template = ClientOptions("client-0");
  w->net = workload::BuildGarageSaleNetwork(w->t, gp);

  workload::ChurnParams cp;
  // Events are scheduled up front, so the churn window must outlast any
  // timed window; the benchmark's clients issue every query.
  cp.duration_seconds = 1e5;
  cp.query_interval_seconds = cp.duration_seconds;
  cp.event_interval_seconds = 4;
  // Crashes stay rare enough that queries waiting out a downtime remain
  // under 1% of the mix, below the p99 the benchmark reports.
  cp.downtime_seconds = 20;
  cp.p_fail = 0.1;
  // Joins balance departures and tombstones are collected after two
  // minutes, so the network and its sync state stay the same size however
  // far a run gets: the work per query must not depend on machine speed.
  cp.p_depart = 0.2;
  cp.p_join = 0.2;
  cp.sync.tombstone_gc_seconds = 120;
  cp.items_per_joiner = 3;
  cp.seed = kNetworkSeed;
  cp.sync.gossip_interval_seconds = 15;
  cp.reliable_queries = true;
  w->churn = std::make_unique<workload::ChurnScenario>(w->t, &w->net, cp);
  w->churn->EnableSyncEverywhere();

  w->clients.push_back(w->net.client);
  for (int c = 1; c < 4; ++c) {
    w->clients.push_back(
        w->AddClient("client-" + std::to_string(c), w->net.top_meta));
  }
  // workload::FlashCrowdScenario's hardware model: every peer serves
  // remote plans at a fixed virtual rate, protection on.
  peer::OverloadOptions ov;
  ov.service_rate_qps = 25;
  ov.seed = kNetworkSeed;
  for (peer::Peer* p : w->AllPeers()) p->mutable_options().overload = ov;
  w->churn->Prepare();

  AddCellPool(w, Family::kNarrow);
  // The hot region: the first seller's city, its top-level category.
  const ns::InterestCell& cell = w->net.seller_specs[0].cell;
  std::string category = cell.coord(1).ToString();
  category = category.substr(0, category.find('/'));
  QuerySpec hot;
  hot.family = Family::kHot;
  hot.area = ns::MakeArea({cell.coord(0).ToString(), category});
  w->pool[Family::kHot].push_back(std::move(hot));
}

std::unique_ptr<World> BuildWorld(const WorkloadSpec& spec, size_t workers,
                                  bool traced, const std::atomic<int>* phase) {
  auto w = std::make_unique<World>();
  net::Transport* inner = nullptr;
  if (spec.threaded) {
    runtime::RuntimeOptions ro;
    ro.num_threads = workers;
    w->rt = std::make_unique<runtime::ThreadedRuntime>(ro);
    inner = w->rt.get();
  } else {
    w->sim = std::make_unique<net::Simulator>();
    inner = w->sim.get();
  }
  w->t = inner;
  if (traced) {
    w->tracer =
        std::make_unique<e2e::TracingTransport>(inner, phase, kMaxCaptures);
    w->t = w->tracer.get();
  }
  if (spec.churn) {
    BuildChurnCrowd(w.get());
  } else {
    BuildMix(w.get());
  }
  return w;
}

// ---------------------------------------------------------- generator

enum : uint8_t { kPending, kOk, kIncomplete, kWrong };

/// One submitted query. Written once by its callback (possibly on a
/// worker thread) and read by the driving thread after Run() returns.
struct Record {
  const QuerySpec* spec = nullptr;
  bool hp = false;
  bool timed = false;
  bool counted = false;
  bool duplicate = false;
  uint8_t state = kPending;
  uint64_t due_ns = 0;
  uint64_t done_ns = 0;
  double vlat = 0;
};

/// Counters at a window boundary.
struct Snapshot {
  net::NetStats stats;
  uint64_t area_resolves = 0;
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Runs the open-loop burst schedule against one World.
class LoadGenerator {
 public:
  LoadGenerator(World* w, const WorkloadSpec& spec, uint64_t seed,
         std::atomic<int>* phase)
      : w_(w), spec_(spec), rng_(seed * 7919 + 17), phase_(phase) {}

  /// Untimed warm-up of the same mix (part of setup).
  void WarmUp() {
    timed_ = false;
    RunWindow();
  }

  /// The timed window: the count window, then bursts until `seconds` of
  /// wall time and kMinQueries submissions (count_only: count window
  /// only), then a drain until every query has been resolved.
  void Timed(double seconds, bool count_only) {
    timed_ = true;
    count_only_ = count_only;
    window_ns_ = static_cast<uint64_t>(seconds * 1e9);
    RunWindow();
    window_end_ = Snap();
    cpu_s_ = CpuSeconds() - cpu0_;
  }

  const std::deque<Record>& records() const { return records_; }
  const Snapshot& count_begin() const { return count_begin_; }
  const Snapshot& count_end() const { return count_end_; }
  const Snapshot& window_end() const { return window_end_; }
  uint64_t window_start_ns() const { return window_start_ns_; }
  double cpu_s() const { return cpu_s_; }

 private:
  /// Schedules burst 0 and steps the transport in virtual-time slices
  /// until the generator has stopped and every query has been resolved
  /// (or the give-up horizon passed).
  void RunWindow() {
    t0_ = std::ceil(w_->t->now()) + 1.0;
    generating_ = true;
    w_->t->Schedule(t0_, [this] { Fire(0); });
    double horizon = w_->t->now();
    while (generating_ ||
           resolved_.load(std::memory_order_acquire) < submitted_) {
      horizon += kSliceSeconds;
      w_->t->Run(horizon);
      if (!generating_ && horizon > last_due_ + kGiveUpSeconds) break;
    }
  }

  Snapshot Snap() const {
    Snapshot s;
    s.stats = std::as_const(*w_->t).stats();
    for (const peer::Peer* p : w_->AllPeers()) {
      s.area_resolves += p->catalog().resolve_stats().area_resolves;
    }
    return s;
  }

  /// Deals the next query of family `f` from a seeded shuffled deck of
  /// its pool: every pool entry is used equally often, so the seed changes
  /// the order of the mix but not its composition.
  const QuerySpec* Pick(Family f) {
    std::vector<const QuerySpec*>& deck = decks_[f];
    if (deck.empty()) {
      for (const QuerySpec& q : w_->pool.at(f)) deck.push_back(&q);
      rng_.Shuffle(&deck);
      std::reverse(deck.begin(), deck.end());
    }
    const QuerySpec* q = deck.back();
    deck.pop_back();
    return q;
  }

  /// Burst `k` of the current window; runs as a timer callback on the
  /// driving thread (the threaded runtime's pool is parked meanwhile).
  void Fire(size_t k) {
    const uint64_t due = NowNs();
    last_due_ = w_->t->now();
    if (timed_ && k == 0) {
      phase_->store(e2e::kCount);
      count_begin_ = Snap();
      window_start_ns_ = due;
      cpu0_ = CpuSeconds();
    }
    if (timed_ && k == spec_.count_bursts) {
      phase_->store(e2e::kTimed);
      count_end_ = Snap();
      if (count_only_) {
        generating_ = false;
        return;
      }
    }
    const bool counted = timed_ && k < spec_.count_bursts;
    if (!spec_.churn) {
      for (size_t slot = 0; slot < std::size(kMixBurst); ++slot) {
        const Family f = kMixBurst[slot];
        peer::Peer* client = f == Family::kJoin
                                 ? w_->cd_client
                                 : w_->clients[slot % w_->clients.size()];
        Submit(Pick(f), client, mix_seq_++ % kMixHpEvery == 5, counted, due);
      }
    } else {
      for (size_t slot = 0; slot < 2; ++slot) {
        Submit(Pick(Family::kNarrow), w_->clients[slot], false, counted, due);
      }
      const size_t in_cycle = k % kCrowdCycle;
      if (in_cycle >= kCrowdBegin && in_cycle < kCrowdEnd) {
        for (size_t slot = 2; slot < 4; ++slot) {
          Submit(Pick(Family::kHot), w_->clients[slot],
                 hot_seq_++ % kCrowdHpEvery == 0, counted, due);
        }
      }
    }
    const size_t next = k + 1;
    bool more;
    if (!timed_) {
      more = next < spec_.warm_bursts;
    } else if (next <= spec_.count_bursts) {
      more = true;
    } else {
      // A hard cap keeps a pathologically slow build inside its budget.
      const uint64_t elapsed = NowNs() - window_start_ns_;
      more = elapsed < 4 * window_ns_ + 20'000'000'000ull &&
             (elapsed < window_ns_ || timed_submitted_ < kMinQueries);
    }
    if (more) {
      w_->t->Schedule(t0_ + static_cast<double>(next) * spec_.burst_interval,
                      [this, next] { Fire(next); });
    } else {
      generating_ = false;
    }
  }

  void Submit(const QuerySpec* q, peer::Peer* client, bool hp, bool counted,
              uint64_t due) {
    records_.emplace_back();
    Record* r = &records_.back();
    r->spec = q;
    r->hp = hp;
    r->timed = timed_;
    r->counted = counted;
    r->due_ns = due;
    ++submitted_;
    if (timed_) ++timed_submitted_;
    algebra::Plan plan = MakePlan(*q, w_->favorites);
    if (hp) plan.policy().priority = 1;
    client->SubmitQuery(std::move(plan), [this,
                                          r](const peer::QueryOutcome& o) {
      const uint64_t now = NowNs();
      if (r->state != kPending) {
        r->duplicate = true;
        return;
      }
      r->done_ns = now;
      r->vlat = o.completed_at - o.submitted_at;
      if (!o.complete || o.timed_out || o.shed) {
        r->state = kIncomplete;
      } else {
        r->state = Verify(*r->spec, o.items) ? kOk : kWrong;
      }
      resolved_.fetch_add(1, std::memory_order_release);
    });
  }

  World* w_;
  const WorkloadSpec& spec_;
  Rng rng_;
  std::atomic<int>* phase_;
  std::map<Family, std::vector<const QuerySpec*>> decks_;
  std::deque<Record> records_;  ///< deque: callbacks hold Record pointers
  std::atomic<size_t> resolved_{0};
  size_t submitted_ = 0;
  size_t timed_submitted_ = 0;
  size_t mix_seq_ = 0;
  size_t hot_seq_ = 0;
  bool timed_ = false;
  bool count_only_ = false;
  bool generating_ = false;
  double t0_ = 0;
  double last_due_ = 0;
  uint64_t window_ns_ = 0;
  uint64_t window_start_ns_ = 0;
  double cpu0_ = 0;
  double cpu_s_ = 0;
  Snapshot count_begin_, count_end_, window_end_;
};

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool counted;  ///< repeats exactly for a seed on the simulator
};
using Metrics = std::vector<Metric>;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t ByKind(const net::KindCounters& c, const char* kind) {
  auto it = c.find(kind);
  return it == c.end() ? 0 : it->second;
}

/// Everything the window's records say, untraced or traced.
struct WindowStats {
  size_t attempted = 0, resolved = 0, ok = 0, wrong = 0, unresolved = 0,
         duplicates = 0;
  size_t count_attempted = 0, count_ok = 0, hp_attempted = 0, hp_ok = 0;
  std::vector<double> lat_ms;   ///< due → callback, every resolved query
  std::vector<double> vlat_ms;  ///< completed_at − submitted_at, count window
  double wall_s = 0;
  double qps = 0;
};

/// Folds the generator's records; warm-up queries count only towards
/// `warm_wrong` (wrong or never answered).
WindowStats Summarize(const LoadGenerator& d, size_t* warm_wrong) {
  WindowStats s;
  uint64_t end_ns = d.window_start_ns();
  for (const Record& r : d.records()) {
    if (r.duplicate) ++s.duplicates;
    if (!r.timed) {
      if (r.state == kWrong || r.state == kPending) ++*warm_wrong;
      continue;
    }
    ++s.attempted;
    if (r.state == kPending) {
      ++s.unresolved;
      continue;
    }
    ++s.resolved;
    if (r.state == kOk) ++s.ok;
    if (r.state == kWrong) ++s.wrong;
    s.lat_ms.push_back(1e-6 * static_cast<double>(r.done_ns - r.due_ns));
    end_ns = std::max(end_ns, r.done_ns);
    if (r.counted) {
      ++s.count_attempted;
      if (r.state == kOk) ++s.count_ok;
      if (r.hp) {
        ++s.hp_attempted;
        if (r.state == kOk) ++s.hp_ok;
      }
      s.vlat_ms.push_back(1e3 * r.vlat);
    }
  }
  for (const Record& r : d.records()) {
    if (r.counted && r.state == kPending) {
      ++s.count_attempted;
      if (r.hp) ++s.hp_attempted;
    }
  }
  s.wall_s = 1e-9 * static_cast<double>(end_ns - d.window_start_ns());
  s.qps = Ratio(static_cast<double>(s.resolved), s.wall_s);
  return s;
}

/// The end-to-end metrics whose values are counts (exact on the simulator).
void CountedEndToEnd(const LoadGenerator& d, const WindowStats& s, Metrics* m) {
  const auto& b = d.count_begin().stats;
  const auto& e = d.count_end().stats;
  const double q = static_cast<double>(s.count_attempted);
  m->push_back({"complete_pct",
                100.0 * Ratio(static_cast<double>(s.count_ok), q), "%", true});
  m->push_back({"hp_complete_pct",
                100.0 * Ratio(static_cast<double>(s.hp_ok),
                              static_cast<double>(s.hp_attempted)),
                "%", true});
  m->push_back({"bytes_per_query",
                Ratio(static_cast<double>(e.bytes - b.bytes), q), "B", true});
  m->push_back({"msgs_per_query",
                Ratio(static_cast<double>(e.messages - b.messages), q), "msgs",
                true});
}

Metrics EndToEnd(const LoadGenerator& d, const WindowStats& s, double setup_s) {
  Metrics m;
  m.push_back({"qps", s.qps, "1/s", false});
  m.push_back({"latency_p50_ms", Percentile(s.lat_ms, 0.50), "ms", false});
  m.push_back({"latency_p99_ms", Percentile(s.lat_ms, 0.99), "ms", false});
  CountedEndToEnd(d, s, &m);
  m.push_back({"cpu_ms_per_query",
               1e3 * Ratio(d.cpu_s(), static_cast<double>(s.resolved)), "ms",
               false});
  m.push_back({"setup_s", setup_s, "s", false});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m.push_back({"rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
               false});
  return m;
}

/// Per-layer metrics of a traced window.
Metrics PerLayer(const LoadGenerator& d, const WindowStats& s, const World& w,
                 size_t threads, double untraced_qps, bool replay) {
  Metrics m;
  const auto& b = d.count_begin().stats;
  const auto& e = d.count_end().stats;
  const auto& we = d.window_end().stats;
  const double qc = static_cast<double>(s.count_attempted);
  const double qw = static_cast<double>(s.attempted);
  auto count = [&](uint64_t net::NetStats::*f) {
    return static_cast<double>(e.*f - b.*f);
  };
  auto window = [&](uint64_t net::NetStats::*f) {
    return static_cast<double>(we.*f - b.*f);
  };
  auto put = [&](const std::string& name, double v, const char* unit,
                 bool counted) { m.push_back({name, v, unit, counted}); };

  // wire / xml
  put("wire.decode_us_per_query",
      Ratio(window(&net::NetStats::plan_decode_ns) / 1e3, qw), "us", false);
  put("wire.parses_per_query", Ratio(count(&net::NetStats::plan_parses), qc),
      "count", true);
  const double ser = count(&net::NetStats::plan_serializations);
  const double reuse = count(&net::NetStats::forwards_without_reserialize);
  put("wire.serializations_per_query", Ratio(ser, qc), "count", true);
  put("wire.forward_reuse_pct", 100.0 * Ratio(reuse, ser + reuse), "%", true);
  put("xml.dom_nodes_per_query",
      Ratio(count(&net::NetStats::dom_nodes_built), qc), "count", true);

  // spans
  const std::vector<e2e::Span> spans = w.tracer->Spans();
  double self_ns[e2e::kNumKinds] = {};
  double n_window[e2e::kNumKinds] = {};
  double n_count[e2e::kNumKinds] = {};
  double allocs_count[e2e::kNumKinds] = {};
  double busy_ns = 0;
  std::vector<double> waits_us;
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const e2e::Span& sp : spans) {
    if (sp.phase == e2e::kSetup) continue;
    const double dur = static_cast<double>(sp.end_ns - sp.start_ns);
    self_ns[sp.kind] += dur;
    n_window[sp.kind] += 1;
    busy_ns += dur;
    intervals.emplace_back(sp.start_ns, sp.end_ns);
    if (sp.matched && sp.kind != e2e::kTimer) {
      waits_us.push_back(1e-3 * static_cast<double>(sp.wait_ns));
    }
    if (sp.phase == e2e::kCount) {
      n_count[sp.kind] += 1;
      allocs_count[sp.kind] += static_cast<double>(sp.allocs);
    }
  }

  // Figure-2 stage replay.
  if (replay) {
    const e2e::StageTimes st = e2e::ReplayStages(w.tracer->captures(), 3);
    put("stage.decode_us", st.decode / 1e3, "us", false);
    put("stage.resolve_us", st.resolve / 1e3, "us", false);
    put("stage.rewrite_us", st.rewrite / 1e3, "us", false);
    put("stage.policy_us", st.policy / 1e3, "us", false);
    put("stage.evaluate_us", st.evaluate / 1e3, "us", false);
    put("stage.encode_us", st.encode / 1e3, "us", false);
    const double mqp_self = Ratio(self_ns[e2e::kMqp], n_window[e2e::kMqp]);
    put("trace.closure_pct", 100.0 * Ratio(st.Sum(), mqp_self), "%", false);
  }
  put("trace.overhead_pct", 100.0 * (Ratio(untraced_qps, s.qps) - 1.0), "%",
      false);

  // engine
  put("engine.eval_us_per_query",
      Ratio(window(&net::NetStats::engine_eval_ns) / 1e3, qw), "us", false);
  put("engine.items_cloned_per_query",
      Ratio(count(&net::NetStats::items_cloned), qc), "count", true);
  put("engine.accessor_hits_per_query",
      Ratio(count(&net::NetStats::field_accessor_hits), qc), "count", true);
  put("engine.hash_probes_per_query",
      Ratio(count(&net::NetStats::structural_hash_probes), qc), "count", true);
  put("engine.budget_aborts", count(&net::NetStats::budget_aborts), "count",
      true);

  // catalog
  const double resolves = static_cast<double>(d.count_end().area_resolves -
                                              d.count_begin().area_resolves);
  put("catalog.entries_scanned_per_resolve",
      Ratio(count(&net::NetStats::resolve_entries_scanned), resolves), "count",
      true);
  put("catalog.index_probes_per_query",
      Ratio(count(&net::NetStats::resolve_index_probes), qc), "count", true);
  put("catalog.binding_cache_hit_pct",
      100.0 * Ratio(count(&net::NetStats::binding_cache_hits), resolves), "%",
      true);

  // sync and per-kind peer handler costs
  auto kind_bytes = [&](const char* kind) {
    return static_cast<double>(ByKind(e.bytes_by_kind, kind) -
                               ByKind(b.bytes_by_kind, kind));
  };
  put("sync.digest_bytes_per_query", Ratio(kind_bytes("sync-digest"), qc), "B",
      true);
  put("sync.delta_bytes_per_query", Ratio(kind_bytes("sync-delta"), qc), "B",
      true);
  double handler_allocs = 0;
  for (int k = 0; k < e2e::kOther; ++k) {
    const std::string kind = e2e::KindName(static_cast<e2e::Kind>(k));
    put("peer." + kind + ".self_us",
        Ratio(self_ns[k], n_window[k]) / 1e3, "us", false);
    put("peer." + kind + ".msgs_per_query", Ratio(n_count[k], qc), "count",
        true);
    put("peer." + kind + ".allocs_per_msg",
        Ratio(allocs_count[k], n_count[k]), "count", true);
    handler_allocs += allocs_count[k];
  }
  handler_allocs += allocs_count[e2e::kOther];
  put("peer.allocs_per_query", Ratio(handler_allocs, qc), "count", true);
  put("peer.topk_batches_per_query",
      Ratio(count(&net::NetStats::topk_batches), qc), "count", true);
  put("peer.topk_rows_pruned_per_query",
      Ratio(count(&net::NetStats::topk_rows_pruned), qc), "count", true);
  put("peer.retries_per_query", Ratio(count(&net::NetStats::query_retries), qc),
      "count", true);
  put("peer.failovers", count(&net::NetStats::failovers), "count", true);
  put("peer.partials", count(&net::NetStats::partials_delivered), "count",
      true);
  put("peer.queries_shed", count(&net::NetStats::queries_shed), "count", true);
  put("peer.cancels_sent", count(&net::NetStats::cancels_sent), "count", true);

  // net: scheduler events, Run() time outside every span, bytes by kind
  put("net.events_per_query",
      Ratio(count(&net::NetStats::events_scheduled), qc), "count", true);
  std::sort(intervals.begin(), intervals.end());
  double covered_ns = 0;
  uint64_t cur_start = 0, cur_end = 0;
  for (const auto& [start, end] : intervals) {
    if (start > cur_end) {
      covered_ns += static_cast<double>(cur_end - cur_start);
      cur_start = start;
      cur_end = end;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  covered_ns += static_cast<double>(cur_end - cur_start);
  double run_ns = 0;
  for (const e2e::RunSpan& r : w.tracer->run_spans()) {
    if (r.start_ns >= d.window_start_ns()) {
      run_ns += static_cast<double>(r.end_ns - r.start_ns);
    }
  }
  put("net.run_self_us_per_query",
      Ratio(std::max(0.0, run_ns - covered_ns) / 1e3, qw), "us", false);
  for (int k = 0; k < e2e::kOther; ++k) {
    const char* kind = e2e::KindName(static_cast<e2e::Kind>(k));
    put(std::string("net.") + kind + ".bytes_per_query",
        Ratio(kind_bytes(kind), qc), "B", true);
  }
  put("net.vlat_p50_ms", Percentile(s.vlat_ms, 0.50), "ms", true);
  put("net.vlat_p99_ms", Percentile(s.vlat_ms, 0.99), "ms", true);

  // runtime: mailbox (send → handler) waits and worker occupancy
  put("runtime.mailbox_wait_us_p50", Percentile(waits_us, 0.50), "us", false);
  put("runtime.mailbox_wait_us_p99", Percentile(waits_us, 0.99), "us", false);
  const double capacity_ns =
      static_cast<double>(threads) * s.wall_s * 1e9;
  put("runtime.worker_busy_pct", 100.0 * Ratio(busy_ns, capacity_ns), "%",
      false);
  put("runtime.barrier_idle_us_per_query",
      Ratio(std::max(0.0, capacity_ns - busy_ns) / 1e3, qw), "us", false);
  put("runtime.soft_overflows", count(&net::NetStats::mailbox_soft_overflows),
      "count", true);
  put("runtime.backpressure_waits",
      count(&net::NetStats::mailbox_backpressure_waits), "count", true);
  return m;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool count_only = false;
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--count-only") {
      a->count_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--spans-dir") {
      a->spans_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const Metrics& metrics, const char* key) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"%s\": {",
              correct ? "true" : "false", attempted, failed, key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintHuman(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--count-only] [--spans-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  // The driving thread takes one core; workers get the rest.
  const size_t workers =
      spec->threaded ? static_cast<size_t>(std::max(1L, nproc - 1)) : 0;
  const size_t threads = spec->threaded ? workers : 1;
  std::printf("workload %s seed %llu backend %s workers %zu nproc %ld "
              "loop open burst_interval %.2fs count_bursts %zu\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              spec->threaded ? "threaded-runtime" : "simulator", workers,
              nproc, spec->burst_interval, spec->count_bursts);

  std::atomic<int> phase{e2e::kSetup};
  bool correct = true;
  size_t attempted = 0, failed = 0;

  // Untraced pass: setup (build + join + warm-up) several times.
  // The traced run repeats the setups too: its untraced window is the
  // reference for trace.overhead_pct and must start from the same warm
  // process state as a plain run.
  const int setups = args.count_only ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  std::unique_ptr<LoadGenerator> gen;
  size_t warm_wrong = 0;
  for (int i = 0; i < setups; ++i) {
    gen.reset();
    world.reset();
    phase.store(e2e::kSetup);
    const uint64_t t0 = NowNs();
    world = BuildWorld(*spec, workers, false, &phase);
    gen = std::make_unique<LoadGenerator>(world.get(), *spec, args.seed,
                                          &phase);
    gen->WarmUp();
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - t0));
  }
  const double window_s = args.trace == 1 ? args.seconds / 2 : args.seconds;
  gen->Timed(window_s, args.count_only);
  const WindowStats plain = Summarize(*gen, &warm_wrong);
  const Metrics e2e_metrics = EndToEnd(*gen, plain, Median(setup_s));
  attempted += plain.attempted;
  failed += plain.attempted - plain.ok;
  correct = correct && plain.wrong == 0 && plain.unresolved == 0 &&
            plain.duplicates == 0 && warm_wrong == 0;
  std::printf("untraced: %zu queries (%zu counted, %zu high-priority), %zu "
              "resolved, %zu wrong, %zu unresolved; window %.3fs\n",
              plain.attempted, plain.count_attempted, plain.hp_attempted,
              plain.resolved, plain.wrong, plain.unresolved, plain.wall_s);
  std::printf("latency samples %zu (p99 has %zu beyond), vlat samples %zu\n",
              plain.lat_ms.size(), plain.lat_ms.size() / 100,
              plain.vlat_ms.size());
  PrintHuman("end-to-end (untraced)", e2e_metrics);

  Metrics layer_metrics;
  if (args.trace == 1 || args.count_only) {
    gen.reset();
    world.reset();
    phase.store(e2e::kSetup);
    world = BuildWorld(*spec, workers, true, &phase);
    gen = std::make_unique<LoadGenerator>(world.get(), *spec, args.seed,
                                          &phase);
    gen->WarmUp();
    gen->Timed(window_s, args.count_only);
    size_t traced_warm_wrong = 0;
    const WindowStats traced = Summarize(*gen, &traced_warm_wrong);
    attempted += traced.attempted;
    failed += traced.attempted - traced.ok;
    correct = correct && traced.wrong == 0 && traced.unresolved == 0 &&
              traced.duplicates == 0 && traced_warm_wrong == 0;
    layer_metrics =
        PerLayer(*gen, traced, *world, threads, plain.qps, !args.count_only);
    if (args.count_only) {
      // Tracing must not perturb what it measures.
      Metrics traced_counts;
      CountedEndToEnd(*gen, traced, &traced_counts);
      for (const Metric& m : traced_counts) {
        layer_metrics.push_back({"traced." + m.name, m.value, m.unit, true});
      }
    }
    std::printf("traced: %zu queries, %zu wrong, %zu unresolved; window "
                "%.3fs; %zu stage captures\n",
                traced.attempted, traced.wrong, traced.unresolved,
                traced.wall_s, world->tracer->captures().size());
    PrintHuman("per-layer (traced)", layer_metrics);
    if (!args.spans_dir.empty() && !args.count_only) {
      const std::string path = args.spans_dir + "/" + spec->name + "-seed" +
                               std::to_string(args.seed) + ".tsv";
      if (!world->tracer->WriteSpans(path)) {
        std::fprintf(stderr, "bench_e2e: could not write %s\n", path.c_str());
      }
    }
  }
  gen.reset();
  world.reset();

  if (args.count_only) {
    Metrics counts;
    for (const Metric& m : e2e_metrics) {
      if (m.counted) counts.push_back(m);
    }
    for (const Metric& m : layer_metrics) {
      if (m.counted) counts.push_back(m);
    }
    PrintJson(correct, attempted, failed, counts, "counts");
  } else {
    PrintJson(correct, attempted, failed,
              args.trace == 1 ? layer_metrics : e2e_metrics, "metrics");
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}
