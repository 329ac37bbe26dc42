#include "net/simulator.h"

#include <utility>

#include "common/strings.h"

namespace mqp::net {

PeerId Simulator::Register(PeerNode* node) {
  const PeerId id = static_cast<PeerId>(nodes_.size());
  nodes_.push_back(node);
  failed_.push_back(false);
  addresses_.push_back(AddressOf(id));
  return id;
}

std::string Simulator::AddressOf(PeerId id) {
  return "10.0.0." + std::to_string(id) + ":9020";
}

const std::string& Simulator::Address(PeerId id) const {
  if (id < addresses_.size()) return addresses_[id];
  // Unregistered id (e.g. an external probe): compute into a scratch
  // slot rather than crash; registered peers never take this path.
  // Audited for the multi-threaded runtimes (DESIGN.md §8): thread_local
  // means each caller owns its scratch, so even if several threads probe
  // unregistered ids concurrently the returned references never alias.
  // The reference is only stable until the same thread's next
  // unregistered-id probe — callers must copy, and all do.
  thread_local std::string scratch;
  scratch = AddressOf(id);
  return scratch;
}

Result<PeerId> Simulator::Lookup(std::string_view address) const {
  std::string_view s = address;
  if (!mqp::StartsWith(s, "10.0.0.")) {
    return Status::NotFound("unknown address '" + std::string(address) + "'");
  }
  s.remove_prefix(7);
  const size_t colon = s.find(':');
  if (colon == std::string_view::npos) {
    return Status::NotFound("address missing port: '" + std::string(address) +
                            "'");
  }
  int64_t id = 0;
  if (!mqp::ParseInt64(s.substr(0, colon), &id) || id < 0 ||
      static_cast<size_t>(id) >= nodes_.size()) {
    return Status::NotFound("no peer at '" + std::string(address) + "'");
  }
  return static_cast<PeerId>(id);
}

void Simulator::Fail(PeerId id) {
  if (id < failed_.size()) failed_[id] = true;
}

void Simulator::Recover(PeerId id) {
  if (id < failed_.size()) failed_[id] = false;
}

bool Simulator::IsFailed(PeerId id) const {
  return id < failed_.size() && failed_[id];
}

double Simulator::Latency(size_t bytes) const {
  return link_.latency_seconds +
         static_cast<double>(bytes) * inv_default_bps_;
}

uint32_t Simulator::EnqueuePooled(double when, SimEvent::Kind kind) {
  const uint64_t hits_before = pool_.pool_hits();
  const uint32_t idx = pool_.Acquire();
  stats_.event_pool_hits += pool_.pool_hits() - hits_before;
  SimEvent& ev = pool_[idx];
  ev.time = when < now_ ? now_ : when;
  ev.seq = seq_++;
  ev.kind = kind;
  const uint64_t resizes_before = calendar_.resizes();
  calendar_.Push(pool_, idx);
  stats_.calendar_resizes += calendar_.resizes() - resizes_before;
  stats_.events_scheduled++;
  return idx;
}

void Simulator::Send(Message msg) {
  // The one place wire sizes are defaulted: framing header plus body.
  if (msg.size_bytes == 0) msg.size_bytes = msg.header.size() + msg.body().size();
  // Intern once per message (senders that pre-set kind_id skip even
  // that); the per-kind stats updates below are flat array indexing.
  if (msg.kind_id == kNoKind) msg.kind_id = InternKind(msg.kind);
  stats_.messages++;
  stats_.bytes += msg.size_bytes;
  stats_.messages_by_kind.Slot(msg.kind_id)++;
  stats_.bytes_by_kind.Slot(msg.kind_id) += msg.size_bytes;
  if (on_send_) on_send_(msg);
  if (msg.from < failed_.size() && failed_[msg.from]) {
    // A failed peer originates nothing: stale scheduled callbacks (e.g. a
    // gossip tick racing a Fail) must not leak traffic from a down node.
    // (External probes with from == kNoPeer are out of range and unaffected.)
    stats_.drops_from_failed++;
    return;
  }
  if (msg.to >= nodes_.size() || failed_[msg.to]) {
    stats_.drops_to_failed++;
    return;  // dropped: unknown or failed destination
  }
  const double when = now_ + Latency(msg.size_bytes);
  // The steady path: the message moves into a recycled pool slot — no
  // per-event allocation, no std::function erasure.
  const uint32_t idx = EnqueuePooled(when, SimEvent::Kind::kDeliver);
  pool_.msg(idx) = std::move(msg);
}

void Simulator::Schedule(double when, std::function<void()> fn) {
  const uint32_t idx = EnqueuePooled(when, SimEvent::Kind::kCall);
  pool_.fn(idx) = std::move(fn);
}

size_t Simulator::Run(double max_time) {
  size_t processed = 0;
  // Hoisted out of the loop: move-assigned from the pool slot each
  // iteration, so per-event construct/destruct of the empty shells is
  // paid once per Run, not once per event.
  Message msg;
  std::function<void()> fn;
  while (!calendar_.empty()) {
    uint32_t idx = calendar_.PopMin(pool_);
    SimEvent& ev = pool_[idx];
    if (ev.time > max_time) {
      // Past the horizon: requeue unchanged ((time, seq) preserved, so
      // a later Run resumes in the exact same order).
      calendar_.Push(pool_, idx);
      break;
    }
    now_ = ev.time;
    // Move the payload out of its slot *before* dispatch: the handler
    // may schedule new events, growing the slabs (invalidating ev) and
    // recycling this very slot — a recycled slot must never be
    // dispatched from.
    const SimEvent::Kind kind = ev.kind;
    if (kind == SimEvent::Kind::kDeliver) {
      msg = std::move(pool_.msg(idx));
    } else {
      fn = std::move(pool_.fn(idx));
    }
    pool_.Release(idx);
    if (kind == SimEvent::Kind::kDeliver) {
      // Re-check at delivery time: the peer may have failed in transit.
      // Counted in drops_to_failed like every backend (DESIGN.md §9).
      if (!IsFailed(msg.to)) {
        nodes_[msg.to]->HandleMessage(msg);
      } else {
        stats_.drops_to_failed++;
      }
    } else {
      fn();
    }
    ++processed;
  }
  return processed;
}

size_t Simulator::SubstrateBytes() const {
  size_t bytes = nodes_.capacity() * sizeof(PeerNode*);
  bytes += failed_.capacity() / 8;
  bytes += addresses_.capacity() * sizeof(std::string);
  for (const std::string& a : addresses_) {
    if (a.capacity() > sizeof(std::string)) bytes += a.capacity();
  }
  bytes += pool_.ApproxBytes();
  bytes += calendar_.ApproxBytes();
  return bytes;
}

}  // namespace mqp::net
