#include "workload/churn.h"

#include <algorithm>
#include <limits>
#include <string_view>

#include "net/simulator.h"

namespace mqp::workload {

using peer::Peer;
using peer::PeerOptions;

namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

// Fills `rec` from the outcome the client delivered.
void Record(const peer::QueryOutcome& o, QueryRecord* rec) {
  rec->answered = o.completed_at;
  rec->complete = o.complete;
  rec->items.clear();
  for (const algebra::Item& item : o.items) {
    rec->items.push_back(ChurnScenario::ItemId(item));
  }
  std::sort(rec->items.begin(), rec->items.end());
  rec->returned_plan = !o.provenance.empty();
  // The dead-end and deadline markers end in "unanswered:<leaves>".
  constexpr std::string_view kMarker = "unanswered:";
  rec->names_unanswered = false;
  for (const auto& e : o.provenance.entries()) {
    const size_t at = e.detail.find(kMarker);
    if (e.action == algebra::ProvenanceAction::kShed ||
        (at != std::string::npos && at + kMarker.size() < e.detail.size())) {
      rec->names_unanswered = true;
    }
  }
}

}  // namespace

bool SellerHistory::UpThroughout(double from, double to) const {
  for (const auto& [a, b] : up) {
    if (a <= from && to < b) return true;
  }
  return false;
}

bool SellerHistory::UpDuring(double from, double to) const {
  for (const auto& [a, b] : up) {
    if (a <= to && from < b) return true;
  }
  return false;
}

std::string ChurnScenario::ItemId(const algebra::Item& item) {
  std::string id;
  for (const char* field : {"seller", "image", "location", "category", "name",
                            "price", "condition", "quantity"}) {
    id += item->ChildText(field);
    id += '|';
  }
  return id;
}

ChurnScenario::ChurnScenario(net::Transport* sim, GarageSaleNetwork* net,
                             ChurnParams params)
    : sim_(sim), net_(net), params_(std::move(params)), rng_(params_.seed) {
  if (params_.query_area.empty()) {
    params_.query_area = *ns::InterestArea::Parse("(USA,*)");
  }
  up_sellers_ = net_->sellers;
  // The membership log: the builder gave seller i the i-th run of
  // items_per_seller items, in all_items order.
  const size_t per = net_->sellers.empty()
                         ? 0
                         : net_->all_items.size() / net_->sellers.size();
  for (size_t i = 0; i < net_->sellers.size(); ++i) {
    SellerHistory h;
    h.address = net_->sellers[i]->address();
    const auto first = net_->all_items.begin() + static_cast<long>(i * per);
    h.items.assign(first, first + static_cast<long>(per));
    h.up.emplace_back(-kForever, kForever);
    seller_index_.emplace(h.address, sellers_.size());
    sellers_.push_back(std::move(h));
  }
  // One knob for the whole fleet: the ablation is only meaningful when
  // forwarding peers stop failing over too, not just the client. The
  // deadline (and the pending-reap it drives) stays either way.
  for (Peer* p : AllPeers()) {
    p->mutable_options().reliability.enabled = params_.reliable_queries;
  }
}

sync::SyncOptions ChurnScenario::OptionsFor(const Peer& peer) const {
  sync::SyncOptions o = params_.sync;
  // Distinct per-peer stream; offset so seed 0 never collides with the
  // scenario's own rng stream.
  o.seed = params_.seed * 7919 + peer.id() + 1;
  o.horizon_seconds = horizon();
  // Heartbeats stop with the churn window; the convergence tail is a
  // quiet period in which the final stamps finish propagating.
  o.refresh_horizon_seconds = params_.duration_seconds;
  return o;
}

std::vector<Peer*> ChurnScenario::AllPeers() const {
  std::vector<Peer*> all;
  if (net_->client != nullptr) all.push_back(net_->client);
  if (net_->top_meta != nullptr) all.push_back(net_->top_meta);
  all.insert(all.end(), net_->index_servers.begin(),
             net_->index_servers.end());
  all.insert(all.end(), net_->sellers.begin(), net_->sellers.end());
  return all;
}

void ChurnScenario::EnableSync(Peer* peer) {
  peer->EnableSync(OptionsFor(*peer));
  peer->sync()->set_expiry_hook(
      [this, peer](const std::string& origin) { OnExpire(*peer, origin); });
}

void ChurnScenario::EnableSyncEverywhere() {
  for (Peer* p : AllPeers()) EnableSync(p);
}

SellerHistory& ChurnScenario::HistoryOf(const Peer* peer) {
  return sellers_[seller_index_.at(peer->address())];
}

bool ChurnScenario::UpThroughout(const std::string& address, double from,
                                 double to) const {
  // Only sellers churn: any other peer has been up all along.
  auto it = seller_index_.find(address);
  return it == seller_index_.end() ||
         sellers_[it->second].UpThroughout(from, to);
}

void ChurnScenario::OnExpire(const Peer& observer, const std::string& origin) {
  ++expiries_;
  // False: both ends were up for the whole TTL, so the origin's refreshes
  // were there to be heard. Heartbeats stop with the churn window (the
  // quiet tail), so only expiries inside it count.
  const double now = sim_->now();
  const double from = now - params_.sync.entry_ttl_seconds;
  if (now <= churn_end() && UpThroughout(observer.address(), from, now) &&
      UpThroughout(origin, from, now)) {
    ++false_expiries_;
  }
}

void ChurnScenario::DoFail(double now) {
  if (up_sellers_.empty()) return;
  const size_t pick = static_cast<size_t>(rng_.NextBelow(up_sellers_.size()));
  Peer* victim = up_sellers_[pick];
  up_sellers_.erase(up_sellers_.begin() + static_cast<long>(pick));
  crashed_sellers_.push_back(victim);
  sim_->Fail(victim->id());
  HistoryOf(victim).up.back().second = now;
  ++stats_.fails;
  sim_->Schedule(now + params_.downtime_seconds, [this, victim]() {
    sim_->Recover(victim->id());
    HistoryOf(victim).up.emplace_back(sim_->now(), kForever);
    // A recovering node re-announces: re-stamp own records so catalogs
    // whose vectors dominate the pre-crash stamps pull them again.
    victim->RejoinNetwork();
    crashed_sellers_.erase(std::find(crashed_sellers_.begin(),
                                     crashed_sellers_.end(), victim));
    up_sellers_.push_back(victim);
    ++stats_.recovers;
  });
}

void ChurnScenario::DoDepart(double now) {
  if (up_sellers_.size() < 2) return;  // keep the network queryable
  const size_t pick = static_cast<size_t>(rng_.NextBelow(up_sellers_.size()));
  Peer* leaver = up_sellers_[pick];
  up_sellers_.erase(up_sellers_.begin() + static_cast<long>(pick));
  departed_.push_back(leaver);
  // Graceful: tombstones push to gossip partners first, then the peer
  // goes dark for good.
  leaver->LeaveNetwork();
  sim_->Fail(leaver->id());
  leaver->Retire();
  HistoryOf(leaver).up.back().second = now;
  ++stats_.departs;
}

void ChurnScenario::DoJoin(double now) {
  auto specs = net_->generator.MakeSellers(1);
  const Seller& spec = specs[0];
  PeerOptions opts;
  opts.name = "joiner-" + std::to_string(next_joiner_++);
  opts.dimension_fields = {"location", "category"};
  opts.interest = ns::InterestArea(spec.cell);
  opts.roles.base = true;
  opts.reliability.enabled = params_.reliable_queries;
  net_->owned.push_back(std::make_unique<Peer>(sim_, opts));
  Peer* joiner = net_->owned.back().get();
  auto items = net_->generator.MakeItems(spec, params_.items_per_joiner);
  net_->all_items.insert(net_->all_items.end(), items.begin(), items.end());
  joiner->PublishCollection("c-" + opts.name, ns::InterestArea(spec.cell),
                            items);
  joiner->AddBootstrap(net_->IndexFor(spec.cell)->address());
  EnableSync(joiner);
  joiner->JoinNetwork();  // classic §3.3 registration rides along
  seller_index_.emplace(joiner->address(), sellers_.size());
  sellers_.push_back({joiner->address(), items, {{now, kForever}}});
  net_->sellers.push_back(joiner);
  up_sellers_.push_back(joiner);
  ++stats_.joins;
}

void ChurnScenario::ScheduleEvents() {
  for (double t = params_.event_interval_seconds;
       t < params_.duration_seconds; t += params_.event_interval_seconds) {
    sim_->Schedule(t, [this]() {
      const double roll = rng_.NextDouble();
      const double now = sim_->now();
      if (roll < params_.p_fail) {
        DoFail(now);
      } else if (roll < params_.p_fail + params_.p_depart) {
        DoDepart(now);
      } else if (roll < params_.p_fail + params_.p_depart + params_.p_join) {
        DoJoin(now);
      }  // else: quiet tick
    });
  }
}

void ChurnScenario::ScheduleQueries() {
  for (double t = params_.query_interval_seconds;
       t < params_.duration_seconds; t += params_.query_interval_seconds) {
    sim_->Schedule(t, [this]() {
      ++stats_.queries_submitted;
      const size_t q = queries_.size();
      queries_.emplace_back().submitted = sim_->now();
      net_->client->SubmitQuery(MakeAreaQueryPlan(params_.query_area),
                                [this, q](const peer::QueryOutcome& o) {
                                  ++stats_.queries_returned;
                                  if (o.complete) ++stats_.queries_complete;
                                  if (!o.complete && !o.items.empty()) {
                                    ++stats_.queries_partial;
                                  }
                                  if (o.timed_out) ++stats_.queries_timed_out;
                                  Record(o, &queries_[q]);
                                });
    });
  }
}

void ChurnScenario::Prepare() {
  if (prepared_) return;
  prepared_ = true;
  ScheduleEvents();
  ScheduleQueries();
}

const ChurnStats& ChurnScenario::Run() {
  Prepare();
  sim_->Run();
  stats_.query_retries = net_->client->counters().query_retries;
  return stats_;
}

std::vector<Peer*> ChurnScenario::LiveSyncedPeers() const {
  std::vector<Peer*> live;
  for (Peer* p : AllPeers()) {
    if (p->sync() == nullptr) continue;
    if (sim_->IsFailed(p->id())) continue;
    live.push_back(p);
  }
  return live;
}

bool ChurnScenario::VectorsConverged() const {
  auto live = LiveSyncedPeers();
  if (live.empty()) return true;
  const catalog::VersionVector reference =
      live[0]->sync()->versioned().vector();
  for (size_t i = 1; i < live.size(); ++i) {
    if (live[i]->sync()->versioned().vector() != reference) return false;
  }
  return true;
}

std::string ChurnScenario::VectorFingerprint() const {
  if (!VectorsConverged()) return "";
  auto live = LiveSyncedPeers();
  if (live.empty()) return "<no-peers>";
  return live[0]->sync()->versioned().DigestXml();
}

double ChurnScenario::ConvergenceBoundSeconds() const {
  int rounds = 0;
  for (const auto& size : kChurnConvergenceSizes) {
    rounds = std::max(rounds, size.max_rounds);
  }
  return rounds * params_.sync.gossip_interval_seconds;
}

std::vector<std::string> ChurnScenario::CheckAnswers() const {
  const double c = ConvergenceBoundSeconds();
  const double ttl = params_.sync.entry_ttl_seconds;
  // Each seller's in-area item ids, once.
  std::vector<std::vector<std::string>> in_area(sellers_.size());
  for (size_t s = 0; s < sellers_.size(); ++s) {
    for (const algebra::Item& item : sellers_[s].items) {
      if (GarageSaleGenerator::ItemInArea(*item, params_.query_area)) {
        in_area[s].push_back(ItemId(item));
      }
    }
  }
  std::vector<std::string> violations;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const QueryRecord& rec = queries_[q];
    if (rec.answered < 0) continue;
    const double t0 = rec.submitted;
    const double t1 = rec.answered;
    const std::string where = "query " + std::to_string(q) + " [" +
                              std::to_string(t0) + ", " + std::to_string(t1) +
                              "]" + (rec.complete ? " complete" : " partial");
    auto answered = [&](const std::string& id) {
      return std::binary_search(rec.items.begin(), rec.items.end(), id);
    };
    std::vector<std::string> possible;
    for (size_t s = 0; s < sellers_.size(); ++s) {
      const SellerHistory& h = sellers_[s];
      if (h.UpDuring(t0 - ttl, t1)) {
        possible.insert(possible.end(), in_area[s].begin(), in_area[s].end());
      }
      if (!rec.complete || t1 > churn_end() || !h.UpThroughout(t0 - c, t1)) {
        continue;
      }
      for (const std::string& id : in_area[s]) {
        if (!answered(id)) {
          violations.push_back(where + ": misses " + id + " of " + h.address +
                               ", up and registered throughout");
        }
      }
    }
    std::sort(possible.begin(), possible.end());
    for (const std::string& id : rec.items) {
      if (!std::binary_search(possible.begin(), possible.end(), id)) {
        violations.push_back(where + ": holds " + id +
                             ", not a possible answer");
      }
    }
    if (!rec.complete && rec.returned_plan && !rec.names_unanswered) {
      violations.push_back(where + ": provenance names nothing unanswered");
    }
  }
  return violations;
}

ChurnConvergence RunChurnConvergence(uint64_t seed, size_t sellers,
                                     bool reliable_queries) {
  net::Simulator sim;
  GarageSaleNetworkParams params;
  params.num_sellers = sellers;
  params.items_per_seller = 4;
  params.seed = seed;
  auto net = BuildGarageSaleNetwork(&sim, params);

  ChurnParams churn;
  churn.reliable_queries = reliable_queries;
  churn.seed = seed;
  churn.duration_seconds = 240;
  churn.event_interval_seconds = 8;
  churn.downtime_seconds = 30;
  churn.query_interval_seconds = 12;
  churn.convergence_tail_seconds = 120;
  churn.sync.gossip_interval_seconds = 5;
  churn.sync.refresh_interval_seconds = 15;
  churn.sync.entry_ttl_seconds = 60;
  // One state's worth of sellers per query: the MQP visits each bound
  // seller sequentially, so a network-wide query would be killed by any
  // single mid-flight crash and measure nothing but plan width.
  churn.query_area = *ns::InterestArea::Parse("(USA.OR,*)");
  ChurnScenario scenario(&sim, &net, churn);
  scenario.EnableSyncEverywhere();

  ChurnConvergence run;
  run.peers_at_start = sim.size();

  // The naive baseline, measured on the same schedule: every gossip
  // round, each live synced peer would re-push its *entire* record set to
  // one partner (registration-style maintenance, no version vectors). The
  // probe serializes that state without sending anything.
  const double step = churn.sync.gossip_interval_seconds;
  for (double t = step; t <= scenario.horizon(); t += step) {
    sim.Schedule(t, [&scenario, &run]() {
      for (Peer* p : scenario.LiveSyncedPeers()) {
        run.naive_bytes +=
            p->sync()->versioned().DeltaSince({}).ToXml().size();
      }
    });
  }

  scenario.Prepare();
  sim.Run(scenario.churn_end());
  // Step gossip-round-sized slices of the quiet tail until every live
  // catalog reports the same version vector.
  const int max_rounds =
      static_cast<int>(churn.convergence_tail_seconds / step);
  for (int r = 0; r <= max_rounds; ++r) {
    if (scenario.VectorsConverged()) {
      run.convergence_rounds = r;
      break;
    }
    sim.Run(scenario.churn_end() + (r + 1) * step);
  }
  sim.Run();  // drain the rest of the tail
  if (run.convergence_rounds < 0 && scenario.VectorsConverged()) {
    run.convergence_rounds = max_rounds;
  }

  run.stats = scenario.stats();
  run.fingerprint = scenario.VectorFingerprint();
  const auto& st = sim.stats();
  auto count = [](const auto& by_kind, const char* kind) -> uint64_t {
    auto it = by_kind.find(kind);
    return it == by_kind.end() ? 0 : it->second;
  };
  run.gossip_bytes = count(st.bytes_by_kind, wire::kSyncDigestKind) +
                     count(st.bytes_by_kind, wire::kSyncDeltaKind);
  run.gossip_messages = count(st.messages_by_kind, wire::kSyncDigestKind) +
                        count(st.messages_by_kind, wire::kSyncDeltaKind);
  run.total_messages = st.messages;
  run.total_bytes = st.bytes;
  run.queries_shed = st.queries_shed;
  run.mailbox_soft_overflows = st.mailbox_soft_overflows;
  return run;
}

std::vector<std::string> ChurnConvergenceShape(const ChurnConvergence& a,
                                               const ChurnConvergence& b,
                                               const ChurnConvergence& retries,
                                               int max_rounds) {
  std::vector<std::string> failed;
  if (a.convergence_rounds < 0 || a.convergence_rounds > max_rounds) {
    failed.push_back("converged in " + std::to_string(a.convergence_rounds) +
                     " rounds, bound " + std::to_string(max_rounds));
  }
  // gossip <= naive / 2.5, in integers.
  if (5 * a.gossip_bytes > 2 * a.naive_bytes) {
    failed.push_back("gossip " + std::to_string(a.gossip_bytes) +
                     " B is over naive " + std::to_string(a.naive_bytes) +
                     " B / 2.5");
  }
  if (a.fingerprint.empty() || a.fingerprint != b.fingerprint ||
      a.total_messages != b.total_messages || a.total_bytes != b.total_bytes) {
    failed.push_back("two same-seed runs differ");
  }
  if (retries.stats.queries_complete != retries.stats.queries_submitted ||
      retries.stats.queries_complete < a.stats.queries_complete) {
    failed.push_back(
        "with retries " + std::to_string(retries.stats.queries_complete) +
        " of " + std::to_string(retries.stats.queries_submitted) +
        " queries complete, without " +
        std::to_string(a.stats.queries_complete));
  }
  return failed;
}

}  // namespace mqp::workload
