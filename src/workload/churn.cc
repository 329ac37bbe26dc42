#include "workload/churn.h"

#include <algorithm>

#include "net/simulator.h"

namespace mqp::workload {

using peer::Peer;
using peer::PeerOptions;

ChurnScenario::ChurnScenario(net::Transport* sim, GarageSaleNetwork* net,
                             ChurnParams params)
    : sim_(sim), net_(net), params_(std::move(params)), rng_(params_.seed) {
  if (params_.query_area.empty()) {
    params_.query_area = *ns::InterestArea::Parse("(USA,*)");
  }
  up_sellers_ = net_->sellers;
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

void ChurnScenario::EnableSyncEverywhere() {
  for (Peer* p : AllPeers()) {
    p->EnableSync(OptionsFor(*p));
  }
}

void ChurnScenario::DoFail(double now) {
  if (up_sellers_.empty()) return;
  const size_t pick = static_cast<size_t>(rng_.NextBelow(up_sellers_.size()));
  Peer* victim = up_sellers_[pick];
  up_sellers_.erase(up_sellers_.begin() + static_cast<long>(pick));
  crashed_sellers_.push_back(victim);
  sim_->Fail(victim->id());
  ++stats_.fails;
  sim_->Schedule(now + params_.downtime_seconds, [this, victim]() {
    sim_->Recover(victim->id());
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
  (void)now;
  if (up_sellers_.size() < 2) return;  // keep the network queryable
  const size_t pick = static_cast<size_t>(rng_.NextBelow(up_sellers_.size()));
  Peer* leaver = up_sellers_[pick];
  up_sellers_.erase(up_sellers_.begin() + static_cast<long>(pick));
  departed_.push_back(leaver);
  // Graceful: tombstones push to gossip partners first, then the peer
  // goes dark for good.
  leaver->LeaveNetwork();
  sim_->Fail(leaver->id());
  ++stats_.departs;
}

void ChurnScenario::DoJoin(double now) {
  (void)now;
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
  joiner->EnableSync(OptionsFor(*joiner));
  joiner->JoinNetwork();  // classic §3.3 registration rides along
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
      net_->client->SubmitQuery(MakeAreaQueryPlan(params_.query_area),
                                [this](const peer::QueryOutcome& o) {
                                  ++stats_.queries_returned;
                                  if (o.complete) ++stats_.queries_complete;
                                  if (!o.complete && !o.items.empty()) {
                                    ++stats_.queries_partial;
                                  }
                                  if (o.timed_out) ++stats_.queries_timed_out;
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
