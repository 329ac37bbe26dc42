// FaultInjector: a deterministic fault-plan decorator over Transport.
//
// Wraps any backend (the simulator, the threaded runtime, the TCP
// transport) and applies a *seeded* fault plan to every message sent
// while armed: per-link / per-kind drop, duplication, and extra delay
// (delay doubles as reorder — a delayed message lands after messages
// sent later), plus scheduled peer crash/restart events and link flaps.
//
// Determinism contract (DESIGN.md §9): the fate of a message is a pure
// function of the plan seed and the message *content* (from, to, kind,
// header, body) — never of the clock, and never of a shared RNG whose
// call order a threaded backend could perturb. The same fault plan
// therefore produces the same fault schedule over net::Simulator and
// runtime::ThreadedRuntime, message for message. The flip side is that
// byte-identical messages share a fate; peer::Peer's retry layer stamps
// an attempt number into the wire header precisely so a retry is a
// *different* message and gets fresh coins.
//
// Fault events are tallied in the inner transport's NetStats
// (fault_drops / fault_dups / fault_delays); a dropped message is still
// counted in messages/bytes, mirroring the drops_* contract.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.h"

namespace mqp::net {

/// \brief Fault rates for one (link, kind) class. Rates are
/// probabilities in [0, 1]; the decision order is drop > duplicate >
/// delay (mutually exclusive per message). A delayed message arrives
/// 0.2 s late, after messages sent meanwhile (reorder).
struct FaultSpec {
  double drop_rate = 0;
  double dup_rate = 0;
  double delay_rate = 0;

  bool Empty() const {
    return drop_rate == 0 && dup_rate == 0 && delay_rate == 0;
  }
};

/// \brief A scheduled crash: `peer` fails at `at`; when `restart_at` > 0
/// it recovers then. Realized via the inner transport's Fail/Recover, so
/// send-time and in-transit drops are accounted exactly like any other
/// failure. (A crash freezes the process — it does not tombstone or
/// re-announce; drive Leave/Rejoin from the workload for that.)
struct CrashEvent {
  PeerId peer = kNoPeer;
  double at = 0;
  double restart_at = 0;
};

/// \brief A directional link outage: messages from → to sent in
/// [down_at, up_at) are dropped (counted as fault_drops).
struct LinkFlap {
  PeerId from = kNoPeer;
  PeerId to = kNoPeer;
  double down_at = 0;
  double up_at = 0;
};

/// \brief The full seeded fault plan.
struct FaultPlan {
  uint64_t seed = 1;
  FaultSpec spec;  ///< default for every message

  /// Per-kind overrides (routing tag → spec), consulted before `spec`.
  std::map<std::string, FaultSpec> per_kind;
  /// Per-link overrides ((from, to) → spec), highest precedence.
  std::map<std::pair<PeerId, PeerId>, FaultSpec> per_link;

  std::vector<CrashEvent> crashes;
  std::vector<LinkFlap> flaps;
};

/// \brief The decorator. Construct peers against the injector instead of
/// the raw backend; call Arm() once the network is built so bootstrap /
/// registration traffic stays fault-free (and the armed point is a
/// message boundary, identical on every backend — not a clock value).
class FaultInjector : public Transport {
 public:
  /// `inner` must outlive the injector.
  FaultInjector(Transport* inner, FaultPlan plan)
      : inner_(inner), plan_(std::move(plan)) {}

  /// Starts applying message faults; schedules the plan's crash and
  /// restart events (once, on the first Arm).
  void Arm();
  bool armed() const { return armed_; }

  const FaultPlan& plan() const { return plan_; }
  /// Mutable before Arm(): crash events name peer ids that exist only
  /// once the network has been built against the injector.
  FaultPlan& mutable_plan() { return plan_; }

  /// Test hook: observes every Send decision while armed. Fates:
  /// 'p' passed through, 'd' dropped, 'D' duplicated, 'y' delayed,
  /// 'f' dropped by a link flap. Determinism suites compare traces.
  using TraceFn = std::function<void(const Message& msg, char fate)>;
  void set_trace(TraceFn trace) { trace_ = std::move(trace); }

  // --- Transport: Send applies the plan, the rest forwards ------------------
  void Send(Message msg) override;

  PeerId Register(PeerNode* node) override { return inner_->Register(node); }
  size_t size() const override { return inner_->size(); }
  const std::string& Address(PeerId id) const override {
    return inner_->Address(id);
  }
  Result<PeerId> Lookup(std::string_view address) const override {
    return inner_->Lookup(address);
  }
  double now() const override { return inner_->now(); }
  void Schedule(double when, std::function<void()> fn) override {
    inner_->Schedule(when, std::move(fn));
  }
  void ScheduleFor(PeerId owner, double when,
                   std::function<void()> fn) override {
    inner_->ScheduleFor(owner, when, std::move(fn));
  }
  void Fail(PeerId id) override { inner_->Fail(id); }
  void Recover(PeerId id) override { inner_->Recover(id); }
  bool IsFailed(PeerId id) const override { return inner_->IsFailed(id); }
  size_t Run(double max_time = 1e9) override { return inner_->Run(max_time); }
  bool Idle() const override { return inner_->Idle(); }
  NetStats& stats() override { return inner_->stats(); }
  const NetStats& stats() const override {
    return static_cast<const Transport*>(inner_)->stats();
  }

 private:
  /// The spec governing `msg`: per-link, else per-kind, else default.
  const FaultSpec& SpecFor(const Message& msg) const;

  /// 64-bit content hash of (seed, from, to, kind, header, body).
  uint64_t FateHash(const Message& msg) const;

  Transport* inner_;
  FaultPlan plan_;
  bool armed_ = false;
  bool crashes_scheduled_ = false;
  TraceFn trace_;
};

}  // namespace mqp::net
