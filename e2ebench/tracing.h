// Out-of-program tracing for the end-to-end benchmark.
//
// Everything here observes the system from outside, through its public
// seams: a net::Transport decorator (the net::FaultInjector pattern) that
// wraps every PeerNode handed to Register, a global operator-new counting
// hook, and a replay of captured plan bodies through the public Figure-2
// stage functions. Spans live in per-thread memory until the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace mqp::peer {
class Peer;
}

namespace e2e {

/// Allocations made so far by the calling thread (operator-new hook).
uint64_t ThreadAllocs();

/// Monotonic wall clock in nanoseconds (steady_clock).
uint64_t NowNs();

/// Message kinds the per-layer breakdown names; everything else is kOther.
/// kTimer marks timer callbacks (Schedule/ScheduleFor), not messages.
enum Kind : uint8_t {
  kMqp, kResult, kFetch, kFetchReply, kSubquery, kSubqueryReply, kRegister,
  kCancel, kSyncDigest, kSyncDelta, kOther, kTimer, kNumKinds
};
Kind KindOf(const std::string& kind);
const char* KindName(Kind k);

/// Workload phase, set from the driving thread at quiescent barriers
/// (burst callbacks); spans and captures record the phase they began in.
enum Phase : int { kSetup = 0, kCount = 1, kTimed = 2 };

/// One handler (or timer-callback) span.
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t query_hash = 0;  ///< FNV-1a of the envelope's query id (0: none)
  uint64_t allocs = 0;      ///< allocations made inside the span
  uint64_t wait_ns = 0;     ///< Send → handler start (0 when unmatched)
  uint32_t id = 0;          ///< process-unique span id
  uint32_t parent = 0;      ///< span running when the message was sent
  uint32_t peer = 0;
  uint16_t thread = 0;
  Kind kind = kOther;
  uint8_t phase = kSetup;
  bool matched = false;     ///< a Send stamp was found for this delivery
};

/// One Run() call on the driving thread.
struct RunSpan {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// A captured plan body and the peer that received it (stage replay).
struct Capture {
  mqp::net::Payload body;
  mqp::peer::Peer* receiver = nullptr;
};

/// \brief The tracing Transport decorator. Construct peers against it
/// instead of the backend; it forwards every call and records spans.
class TracingTransport : public mqp::net::Transport {
 public:
  /// `inner` must outlive the decorator; `phase` is read at span start.
  /// The first `max_captures` mqp bodies delivered in the count phase
  /// are kept for the stage replay.
  TracingTransport(mqp::net::Transport* inner, const std::atomic<int>* phase,
                   size_t max_captures);
  ~TracingTransport() override;

  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  mqp::net::PeerId Register(mqp::net::PeerNode* node) override;
  void Send(mqp::net::Message msg) override;
  void Schedule(double when, std::function<void()> fn) override;
  void ScheduleFor(mqp::net::PeerId owner, double when,
                   std::function<void()> fn) override;
  size_t Run(double max_time = 1e9) override;

  size_t size() const override { return inner_->size(); }
  const std::string& Address(mqp::net::PeerId id) const override {
    return inner_->Address(id);
  }
  mqp::Result<mqp::net::PeerId> Lookup(
      std::string_view address) const override {
    return inner_->Lookup(address);
  }
  double now() const override { return inner_->now(); }
  void Fail(mqp::net::PeerId id) override { inner_->Fail(id); }
  void Recover(mqp::net::PeerId id) override { inner_->Recover(id); }
  bool IsFailed(mqp::net::PeerId id) const override {
    return inner_->IsFailed(id);
  }
  bool Idle() const override { return inner_->Idle(); }
  mqp::net::NetStats& stats() override { return inner_->stats(); }
  const mqp::net::NetStats& stats() const override {
    return static_cast<const mqp::net::Transport*>(inner_)->stats();
  }

  /// Every span recorded so far, merged across threads (quiescent only).
  std::vector<Span> Spans() const;
  const std::vector<RunSpan>& run_spans() const { return run_spans_; }
  const std::vector<Capture>& captures() const { return captures_; }

  /// Writes all spans as tab-separated lines (one header line) to `path`.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Shim;
  struct ThreadBuf;
  struct SendKey {
    const void* body;
    mqp::net::PeerId to;
    bool operator==(const SendKey&) const = default;
  };
  struct SendKeyHash {
    size_t operator()(const SendKey& k) const {
      return std::hash<const void*>()(k.body) * 31u + k.to;
    }
  };
  struct SendStamp {
    uint64_t at_ns;
    uint32_t parent;
  };

  ThreadBuf& Buf();
  /// Runs `fn` as a span of `kind` for `peer`. Deliveries pass the `key`
  /// that finds their Send stamp; timers pass the span that scheduled
  /// them as `parent`.
  void InSpan(Kind kind, uint32_t peer, uint64_t query_hash,
              const SendKey* key, uint32_t parent,
              const std::function<void()>& fn);
  std::function<void()> WrapTimer(uint32_t owner, std::function<void()> fn);

  mqp::net::Transport* inner_;
  const std::atomic<int>* phase_;
  const size_t max_captures_;
  const uint64_t uid_;
  std::deque<std::unique_ptr<Shim>> shims_;  ///< driving thread only

  mutable std::mutex bufs_mu_;
  std::deque<std::unique_ptr<ThreadBuf>> bufs_;  ///< guarded by bufs_mu_

  std::mutex sends_mu_;
  /// In-flight sends by (body buffer, destination), FIFO per key.
  std::unordered_map<SendKey, std::deque<SendStamp>, SendKeyHash>
      sends_;  ///< guarded by sends_mu_

  std::mutex captures_mu_;
  std::vector<Capture> captures_;  ///< guarded by captures_mu_

  std::atomic<uint32_t> next_span_{1};
  std::vector<RunSpan> run_spans_;  ///< driving thread only
};

/// Per-stage wall time of replaying one captured hop, in nanoseconds.
struct StageTimes {
  double decode = 0, resolve = 0, rewrite = 0, policy = 0, evaluate = 0,
         encode = 0;
  size_t hops = 0;  ///< captures replayed
  double Sum() const {
    return decode + resolve + rewrite + policy + evaluate + encode;
  }
};

/// Replays every capture through ParsePlan → Catalog::Resolve →
/// optimizer rewrites → PolicyManager::Decide → engine::Evaluate →
/// SerializePlan on the receiving peer's catalog and store, `repeats`
/// times each; returns the mean over captures of each stage's median.
/// Must run while the transport is quiescent.
StageTimes ReplayStages(const std::vector<Capture>& captures, int repeats);

}  // namespace e2e
