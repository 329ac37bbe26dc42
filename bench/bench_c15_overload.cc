// C15 — overload protection under a flash crowd (DESIGN.md §11).
//
// A flash crowd aims interest-area queries at one hot state of a
// garage-sale network whose peers run the virtual service-time model
// (service_rate_qps), sweeping offered load {1, 2, 4, 10}x the
// calibrated capacity crossed with protection {on, ablated}:
//   * on: client-side admission control, priority-aware RED shedding at
//     the loaded peers, per-query evaluation budgets and cooperative
//     cancellation — the full §11 stack,
//   * ablated: OverloadOptions::enabled = false fleet-wide — the fleet
//     is exactly as slow, just undefended: the backlog grows without
//     bound and queries complete only until queueing delay crosses the
//     deadline.
// 5% of the crowd is submitted at PlanPolicy::priority 1; shedding is
// supposed to spend the shortfall on the best-effort slice so the
// high-priority one keeps completing even at 10x.
//
// Shape checks (enforced, nonzero exit on failure):
//   * >= 95% high-priority completion at 10x with protection on,
//   * protected goodput strictly above ablated at every overload level
//     (>1x; >= at 1x, where both are uncongested),
//   * protected p99 completion latency at 10x bounded well inside the
//     deadline,
//   * the machinery actually engaged at 10x (sheds > 0, cancels > 0),
//   * no leaked pending entries or top-k sessions anywhere in the fleet
//     after the drain, in every cell,
//   * a same-seed repeat of the 10x protected cell reproduces the
//     decision trace and overload counters bit for bit.
//
// Flags: --ci shrinks the submission window for a CI smoke slot;
// --json=PATH writes BENCH_overload.json for the workflow artifact.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/simulator.h"
#include "workload/flash_crowd.h"
#include "bench_util.h"

using namespace mqp;

namespace {

struct Cell {
  double multiplier = 1;
  bool protection = false;
  workload::FlashCrowdStats st;
  double duration = 0;

  double goodput() const { return st.goodput_qps(duration); }
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

workload::FlashCrowdParams ParamsFor(double multiplier, bool protection,
                                     double duration) {
  workload::FlashCrowdParams p;
  p.seed = 1500;
  p.load_multiplier = multiplier;
  p.protection = protection;
  p.duration_seconds = duration;
  // Engage the whole §11 stack: a loose client admission cap (the
  // deadline-parked best-effort backlog tops out well above it at 10x),
  // a tight shed watermark so even the worst-case admitted path — every
  // hop's queue at the watermark — lands inside the deadline, and row
  // budgets scaled to the remaining deadline.
  p.overload.max_pending_queries = 256;
  p.overload.shed_delay_seconds = 1.0;
  p.overload.budget_rows_per_second = 5000;
  return p;
}

Cell RunCell(double multiplier, bool protection, double duration) {
  Cell cell;
  cell.multiplier = multiplier;
  cell.protection = protection;
  cell.duration = duration;

  net::Simulator sim;
  workload::FlashCrowdScenario scenario(&sim,
                                        ParamsFor(multiplier, protection,
                                                  duration));
  cell.st = scenario.Run();
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

  bench::Header("C15", "overload protection: offered load x protection "
                       "sweep over a flash crowd");

  const double duration = ci ? 40.0 : 60.0;
  const double deadline = workload::FlashCrowdParams{}.query_deadline_seconds;
  bench::Row("load: capacity 8 qps, per-peer service 10 qps, %gs window, "
             "deadline %gs, 5%% high-priority",
             duration, deadline);
  bench::Row("  %-5s %-5s %11s %7s %7s %7s %9s %8s %7s %7s %7s %7s",
             "load", "prot", "complete", "shed", "rshed", "timeout",
             "hp_done", "goodput", "p50_s", "p99_s", "cancel", "abort");

  std::vector<Cell> cells;
  for (double m : {1.0, 2.0, 4.0, 10.0}) {
    for (bool prot : {false, true}) {
      Cell c = RunCell(m, prot, duration);
      const auto& s = c.st;
      bench::Row("  %3.0fx  %-5s %5zu/%-5zu %7zu %7llu %7zu %4zu/%-4zu "
                 "%7.2f %7.2f %7.2f %7llu %7llu",
                 m, prot ? "on" : "off", s.complete, s.submitted, s.shed,
                 static_cast<unsigned long long>(s.queries_shed),
                 s.timed_out, s.hp_complete, s.hp_submitted, c.goodput(),
                 Percentile(s.latencies, 0.50), Percentile(s.latencies, 0.99),
                 static_cast<unsigned long long>(s.cancels_sent),
                 static_cast<unsigned long long>(s.budget_aborts));
      cells.push_back(std::move(c));
    }
  }

  auto cell_at = [&](double m, bool prot) -> const Cell& {
    for (const auto& c : cells) {
      if (c.multiplier == m && c.protection == prot) return c;
    }
    return cells.front();
  };

  bool shape_ok = true;
  const Cell& hot = cell_at(10.0, true);

  if (hot.st.hp_completion_pct() < 95.0) {
    bench::Row("SHAPE FAIL: %.1f%% high-priority completion at 10x with "
               "protection on (need >= 95%%)",
               hot.st.hp_completion_pct());
    shape_ok = false;
  }
  for (double m : {1.0, 2.0, 4.0, 10.0}) {
    const Cell& on = cell_at(m, true);
    const Cell& off = cell_at(m, false);
    const bool ok = m > 1.0 ? on.st.complete > off.st.complete
                            : on.st.complete >= off.st.complete;
    if (!ok) {
      bench::Row("SHAPE FAIL: protected goodput (%zu complete) not %s "
                 "ablated (%zu) at %.0fx",
                 on.st.complete, m > 1.0 ? "strictly above" : "at least",
                 off.st.complete, m);
      shape_ok = false;
    }
  }
  const double hot_p99 = Percentile(hot.st.latencies, 0.99);
  if (hot.st.complete == 0 || hot_p99 > 0.9 * deadline) {
    bench::Row("SHAPE FAIL: protected p99 at 10x is %.2fs (need > 0 "
               "completions and p99 <= %.1fs)",
               hot_p99, 0.9 * deadline);
    shape_ok = false;
  }
  if (hot.st.queries_shed == 0 || hot.st.cancels_sent == 0) {
    bench::Row("SHAPE FAIL: protection idle at 10x (sheds %llu, cancels "
               "%llu) — the crowd never tripped the defenses",
               static_cast<unsigned long long>(hot.st.queries_shed),
               static_cast<unsigned long long>(hot.st.cancels_sent));
    shape_ok = false;
  }
  for (const auto& c : cells) {
    if (c.st.leaked_pending != 0 || c.st.leaked_sessions != 0) {
      bench::Row("SHAPE FAIL: %zu pending entries / %zu top-k sessions "
                 "leaked at %.0fx prot=%s",
                 c.st.leaked_pending, c.st.leaked_sessions, c.multiplier,
                 c.protection ? "on" : "off");
      shape_ok = false;
    }
  }

  // Same seed, same cell, fresh simulator: every shed/abort/cancel
  // decision must replay identically.
  Cell repeat = RunCell(10.0, true, duration);
  if (repeat.st.decision_trace != hot.st.decision_trace ||
      repeat.st.queries_shed != hot.st.queries_shed ||
      repeat.st.budget_aborts != hot.st.budget_aborts ||
      repeat.st.cancels_sent != hot.st.cancels_sent ||
      repeat.st.cancelled_sessions_reaped !=
          hot.st.cancelled_sessions_reaped) {
    bench::Row("SHAPE FAIL: same-seed repeat of the 10x protected cell "
               "diverged (trace or counters)");
    shape_ok = false;
  }

  bench::Row("");
  bench::Row("shape check: %s", shape_ok ? "OK" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f) {
      std::fprintf(f, "{\n  \"bench\": \"c15_overload\",\n");
      std::fprintf(f, "  \"ci\": %s,\n", ci ? "true" : "false");
      std::fprintf(f, "  \"window_seconds\": %.0f,\n", duration);
      std::fprintf(f, "  \"cells\": [\n");
      for (size_t i = 0; i < cells.size(); ++i) {
        const auto& c = cells[i];
        const auto& s = c.st;
        std::fprintf(
            f,
            "    {\"multiplier\": %.0f, \"protection\": %s, "
            "\"submitted\": %zu, \"complete\": %zu, \"shed\": %zu, "
            "\"timed_out\": %zu, \"partial\": %zu, "
            "\"hp_submitted\": %zu, \"hp_complete\": %zu, "
            "\"goodput_qps\": %.2f, \"p50_latency\": %.3f, "
            "\"p99_latency\": %.3f, \"queries_shed\": %llu, "
            "\"budget_aborts\": %llu, \"cancels_sent\": %llu, "
            "\"cancelled_sessions_reaped\": %llu, "
            "\"leaked_pending\": %zu, \"leaked_sessions\": %zu}%s\n",
            c.multiplier, c.protection ? "true" : "false", s.submitted,
            s.complete, s.shed, s.timed_out, s.partial, s.hp_submitted,
            s.hp_complete, c.goodput(), Percentile(s.latencies, 0.50),
            Percentile(s.latencies, 0.99),
            static_cast<unsigned long long>(s.queries_shed),
            static_cast<unsigned long long>(s.budget_aborts),
            static_cast<unsigned long long>(s.cancels_sent),
            static_cast<unsigned long long>(s.cancelled_sessions_reaped),
            s.leaked_pending, s.leaked_sessions,
            i + 1 < cells.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(f, "  \"shape_ok\": %s\n}\n",
                   shape_ok ? "true" : "false");
      std::fclose(f);
      bench::Row("wrote %s", json_path.c_str());
    } else {
      bench::Row("could not open %s", json_path.c_str());
    }
  }
  return shape_ok ? 0 : 1;
}
