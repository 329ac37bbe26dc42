#include "peer/admission.h"

#include <algorithm>

namespace mqp::peer {

namespace {

// FNV-1a, the shed coin's hash: the coin must be a pure function of
// (seed, query id, attempt), identical across backends and standard
// libraries (std::hash is implementation-defined, so it cannot be the
// coin).
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  for (const unsigned char c : s) {
    h = (h ^ c) * kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xffu)) * kFnvPrime;
  }
  return h;
}

// Best-effort plans enter the RED gray zone at half the delay watermark.
constexpr double kEarlyShedFraction = 0.5;

// Whether to shed an arriving plan on its projected queueing delay; pure
// in (seed, query id, attempt).
bool ShouldShed(const OverloadOptions& options, double projected_delay,
                uint32_t priority, const std::string& query_id,
                uint32_t attempt) {
  const double watermark = options.shed_delay_seconds;
  if (watermark <= 0) return false;
  if (priority > 0) {
    // High-priority traffic is refused only past the hard ceiling —
    // beyond it, admitting more would starve everything already queued.
    return projected_delay >= watermark * kHighPriorityCeiling;
  }
  if (projected_delay >= watermark) return true;
  const double knee = kEarlyShedFraction * watermark;
  if (projected_delay <= knee) return false;
  // RED-style gray zone: shed with probability ramping linearly from 0
  // at the knee to 1 at the watermark, so pressure is released gradually
  // instead of oscillating around a hard edge. The coin is a pure
  // function of (seed, query id, attempt) — every backend, and every
  // rerun, flips it the same way.
  const double p = (projected_delay - knee) / (watermark - knee);
  uint64_t h = Fnv1a(kFnvOffset, options.seed);
  h = Fnv1a(h, query_id);
  h = Fnv1a(h, static_cast<uint64_t>(attempt));
  const double coin = static_cast<double>(h % 1000000ULL) / 1e6;
  return coin < p;
}

}  // namespace

Admission::Admission(net::Transport* net, const OverloadOptions& options,
                     CounterSink* counts)
    : net_(net), options_(options), counts_(counts) {}

Admission::Verdict Admission::Admit(const algebra::Plan& plan,
                                    double deadline, uint32_t attempt) {
  // The client already tore this query down; servicing it is waste.
  if (Reap(plan.query_id())) return Verdict::kReap;
  // No service-time model: process at arrival (the pre-§11 path —
  // default traces stay byte-identical).
  if (options_.service_rate_qps <= 0) return Verdict::kServe;
  // The modeled core serves one plan per 1/rate seconds; arrivals queue
  // behind busy_until_. The model runs even when the protection is
  // ablated — it is the hardware, not the policy; the policy is deciding
  // *not* to join a hopeless queue.
  const double now = net_->now();
  const double start = std::max(now, busy_until_);
  const double done = start + 1.0 / options_.service_rate_qps;
  // A plan whose results would leave past its deadline even if served
  // next is refused instead of burning a core slot on a query nobody
  // will wait for: the partial evaluated so far goes back *now* — before
  // the client's own deadline fires — and the kShed marker quarantines
  // this hop so a retry binds elsewhere.
  if (options_.enabled &&
      ((deadline > 0 && done > deadline) ||
       ShouldShed(options_, start - now, plan.policy().priority,
                  plan.query_id(), attempt))) {
    counts_->Count(&PeerCounters::queries_shed);
    return Verdict::kShed;
  }
  // The plan occupies the core for [start, done) and its results leave
  // at service *completion* — a lone plan on an idle peer still costs
  // one service time, not zero (M/D/1, not a pure queue).
  busy_until_ = done;
  return Verdict::kQueue;
}

bool Admission::Reap(const std::string& query_id) {
  if (!options_.enabled || !cancelled_.Contains(query_id)) return false;
  counts_->Count(&PeerCounters::cancelled_sessions_reaped);
  return true;
}

bool Admission::Expired(double deadline) const {
  return options_.enabled && options_.service_rate_qps > 0 && deadline > 0 &&
         net_->now() >= deadline;
}

engine::EvalLimits Admission::LimitsFor(double deadline) const {
  engine::EvalLimits lim;
  if (options_.enabled && options_.budget_rows_per_second > 0 &&
      deadline > 0) {
    // Remaining virtual time converts to a deterministic row allowance
    // (a wall-clock cap would differ run to run); the floor keeps tiny
    // salvage evaluations finishable even at the deadline's edge.
    const double remaining = deadline - net_->now();
    uint64_t rows = 0;
    if (remaining > 0) {
      rows = static_cast<uint64_t>(
          remaining * static_cast<double>(options_.budget_rows_per_second));
    }
    lim.max_rows = std::max(rows, options_.min_budget_rows);
  }
  return lim;
}

bool Admission::Cancel(const std::string& query_id) {
  // Idempotent under FaultInjector duplication: only the first copy of a
  // cancel does any work.
  return options_.enabled && !query_id.empty() &&
         cancelled_.Insert(query_id);
}

}  // namespace mqp::peer
