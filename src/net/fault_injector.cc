#include "net/fault_injector.h"

namespace mqp::net {
namespace {

// splitmix64 finalizer: turns a raw content hash plus a salt into an
// independent, well-mixed 64-bit stream. Each fault decision (drop,
// dup, delay) uses its own salt, so the three coins drawn for one
// message are decorrelated even though they share a hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform in [0, 1) from a mixed 64-bit value (53 mantissa bits).
double ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Extra latency of a delayed message (the reorder fault).
constexpr double kDelaySeconds = 0.2;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvBytes(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }

}  // namespace

void FaultInjector::Arm() {
  armed_ = true;
  if (crashes_scheduled_) return;
  crashes_scheduled_ = true;
  for (const CrashEvent& c : plan_.crashes) {
    Transport* inner = inner_;
    const PeerId peer = c.peer;
    inner_->Schedule(c.at, [inner, peer] { inner->Fail(peer); });
    if (c.restart_at > 0) {
      inner_->Schedule(c.restart_at, [inner, peer] { inner->Recover(peer); });
    }
  }
}

const FaultSpec& FaultInjector::SpecFor(const Message& msg) const {
  if (!plan_.per_link.empty()) {
    auto it = plan_.per_link.find({msg.from, msg.to});
    if (it != plan_.per_link.end()) return it->second;
  }
  if (!plan_.per_kind.empty()) {
    auto it = plan_.per_kind.find(msg.kind);
    if (it != plan_.per_kind.end()) return it->second;
  }
  return plan_.spec;
}

uint64_t FaultInjector::FateHash(const Message& msg) const {
  uint64_t h = kFnvOffset;
  h = FnvU64(h, plan_.seed);
  h = FnvU64(h, msg.from);
  h = FnvU64(h, msg.to);
  h = FnvBytes(h, msg.kind.data(), msg.kind.size());
  h = FnvBytes(h, msg.header.data(), msg.header.size());
  const std::string& body = msg.body();
  h = FnvBytes(h, body.data(), body.size());
  return h;
}

void FaultInjector::Send(Message msg) {
  if (!armed_) {
    inner_->Send(std::move(msg));
    return;
  }

  // Flap check first: a downed link drops regardless of rates. The
  // window test reads the clock, but flap endpoints are plan constants
  // and both deterministic backends advance the same virtual clock, so
  // the decision stays backend-invariant.
  const double t = inner_->now();
  for (const LinkFlap& f : plan_.flaps) {
    if (f.from == msg.from && f.to == msg.to && t >= f.down_at &&
        t < f.up_at) {
      if (msg.size_bytes == 0) {
        msg.size_bytes = msg.header.size() + msg.body().size();
      }
      if (msg.kind_id == kNoKind) msg.kind_id = InternKind(msg.kind);
      NetStats& s = inner_->stats();
      s.messages++;
      s.bytes += msg.size_bytes;
      s.messages_by_kind.Slot(msg.kind_id)++;
      s.bytes_by_kind.Slot(msg.kind_id) += msg.size_bytes;
      s.fault_drops++;
      if (trace_) trace_(msg, 'f');
      return;
    }
  }

  const FaultSpec& spec = SpecFor(msg);
  if (spec.Empty()) {
    if (trace_) trace_(msg, 'p');
    inner_->Send(std::move(msg));
    return;
  }

  const uint64_t h = FateHash(msg);
  // Mutually exclusive, priority drop > dup > delay: each fault class
  // draws its own coin, and a message claimed by a higher class never
  // reaches the lower ones.
  if (spec.drop_rate > 0 && ToUnit(Mix(h ^ 0x1111111111111111ULL)) <
                                spec.drop_rate) {
    // The inner transport never sees the message, so replicate its
    // send-side accounting here: a faulted drop still counts as sent
    // (same contract as drops_from_failed / drops_to_failed).
    if (msg.size_bytes == 0) {
      msg.size_bytes = msg.header.size() + msg.body().size();
    }
    if (msg.kind_id == kNoKind) msg.kind_id = InternKind(msg.kind);
    NetStats& s = inner_->stats();
    s.messages++;
    s.bytes += msg.size_bytes;
    s.messages_by_kind.Slot(msg.kind_id)++;
    s.bytes_by_kind.Slot(msg.kind_id) += msg.size_bytes;
    s.fault_drops++;
    if (trace_) trace_(msg, 'd');
    return;
  }
  if (spec.dup_rate > 0 &&
      ToUnit(Mix(h ^ 0x2222222222222222ULL)) < spec.dup_rate) {
    inner_->stats().fault_dups++;
    if (trace_) trace_(msg, 'D');
    Message copy = msg;  // payload is shared, the copy is cheap
    inner_->Send(std::move(copy));
    inner_->Send(std::move(msg));
    return;
  }
  if (spec.delay_rate > 0 &&
      ToUnit(Mix(h ^ 0x3333333333333333ULL)) < spec.delay_rate) {
    inner_->stats().fault_delays++;
    if (trace_) trace_(msg, 'y');
    // Re-submit through the *inner* transport after the extra latency —
    // the delayed copy is not re-faulted. Messages sent meanwhile
    // overtake it, which is exactly the reorder fault.
    Transport* inner = inner_;
    inner_->Schedule(t + kDelaySeconds,
                     [inner, m = std::move(msg)]() mutable {
                       inner->Send(std::move(m));
                     });
    return;
  }
  if (trace_) trace_(msg, 'p');
  inner_->Send(std::move(msg));
}

}  // namespace mqp::net
