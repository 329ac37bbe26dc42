// Overload protection's server side (DESIGN.md §11): the M/D/1 service
// model every arriving remote plan queues through, RED-style shedding on
// its projected delay, the row budget an evaluation runs under, and the
// ring of cancelled queries whose plans are reaped instead of served.
#pragma once

#include <string>

#include "engine/operator.h"
#include "peer/common.h"

namespace mqp::peer {

class Admission {
 public:
  /// What becomes of an arriving remote plan.
  enum class Verdict {
    kReap,   ///< its query was cancelled here: drop it (counted)
    kServe,  ///< no service model: process it now
    kShed,   ///< refused (counted): return it with a shed marker
    kQueue,  ///< admitted: process it at serve_at()
  };

  /// `options` are the peer's, read live.
  Admission(net::Transport* net, const OverloadOptions& options,
            CounterSink* counts);

  /// Decides an arriving plan's fate from its query id, policy priority
  /// and envelope deadline and attempt.
  Verdict Admit(const algebra::Plan& plan, double deadline, uint32_t attempt);
  /// When the last admitted plan's service completes.
  double serve_at() const { return busy_until_; }
  /// True (and counted) when the protection is on and `query_id` was
  /// cancelled here: a plan queued for it is reaped instead of served.
  bool Reap(const std::string& query_id);
  /// True when the service model is on and `deadline` has passed: the
  /// plan skips the Figure-2 pass and goes straight to salvage.
  bool Expired(double deadline) const;
  /// The engine budget for one evaluation under `deadline` (unlimited
  /// when budgets are off or no deadline applies).
  engine::EvalLimits LimitsFor(double deadline) const;
  /// Records a cancel for `query_id`; true only for the first copy, and
  /// only while the protection is on.
  bool Cancel(const std::string& query_id);

 private:
  net::Transport* net_;
  const OverloadOptions& options_;
  CounterSink* counts_;
  /// Virtual time until which the peer's modeled core is busy; the
  /// service-time model queues admitted plans behind it. Never read when
  /// service_rate_qps is 0.
  double busy_until_ = 0;
  /// Recently cancelled query ids: queued plans and late traffic for
  /// these are dropped instead of serviced.
  RecentIds cancelled_{256};
};

}  // namespace mqp::peer
