#include "runtime/threaded_runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "net/simulator.h"

namespace mqp::runtime {

namespace {

// Thread-local shard cache. Keyed by a process-unique runtime id (never
// a pointer): a cache left behind by a destroyed runtime at a reused
// address can never validate against a new instance.
struct TlsShard {
  uint64_t runtime_uid = 0;
  net::NetStats* shard = nullptr;
  bool is_worker = false;
};
thread_local TlsShard t_shard;

uint64_t NextRuntimeUid() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

ThreadedRuntime::ThreadedRuntime(RuntimeOptions options)
    : options_(options), runtime_uid_(NextRuntimeUid()) {
  num_threads_ = options_.num_threads != 0
                     ? options_.num_threads
                     : std::max(1u, std::thread::hardware_concurrency());
}

ThreadedRuntime::~ThreadedRuntime() {
  // Fast stop: pending mail is discarded (Shutdown() first for a drain).
  std::unique_lock<std::mutex> lk(sched_mu_);
  stopping_ = true;
  work_cv_.notify_all();
  space_cv_.notify_all();
  lk.unlock();
  for (std::thread& t : workers_) t.join();
}

net::PeerId ThreadedRuntime::Register(net::PeerNode* node) {
  std::lock_guard<std::mutex> lk(sched_mu_);
  const net::PeerId id = static_cast<net::PeerId>(nodes_.size());
  nodes_.push_back(node);
  failed_.push_back(false);
  // The same address scheme as the simulator, so catalog entries (which
  // embed owner/server addresses) compare equal across backends.
  addresses_.push_back(net::Simulator::AddressOf(id));
  mailboxes_.emplace_back();
  return id;
}

size_t ThreadedRuntime::size() const {
  std::lock_guard<std::mutex> lk(sched_mu_);
  return nodes_.size();
}

const std::string& ThreadedRuntime::Address(net::PeerId id) const {
  std::lock_guard<std::mutex> lk(sched_mu_);
  if (id < addresses_.size()) return addresses_[id];  // deque: stable ref
  thread_local std::string scratch;  // same contract as Simulator::Address
  scratch = net::Simulator::AddressOf(id);
  return scratch;
}

Result<net::PeerId> ThreadedRuntime::Lookup(std::string_view address) const {
  std::string_view s = address;
  const std::string_view prefix = "10.0.0.";
  if (s.substr(0, prefix.size()) != prefix) {
    return Status::NotFound("unknown address '" + std::string(address) + "'");
  }
  s.remove_prefix(prefix.size());
  const size_t colon = s.find(':');
  if (colon == std::string_view::npos) {
    return Status::NotFound("address missing port: '" + std::string(address) +
                            "'");
  }
  uint64_t id = 0;
  for (char c : s.substr(0, colon)) {
    if (c < '0' || c > '9') {
      return Status::NotFound("no peer at '" + std::string(address) + "'");
    }
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  std::lock_guard<std::mutex> lk(sched_mu_);
  if (id >= nodes_.size()) {
    return Status::NotFound("no peer at '" + std::string(address) + "'");
  }
  return static_cast<net::PeerId>(id);
}

double ThreadedRuntime::now() const {
  return now_.load(std::memory_order_relaxed);
}

net::NetStats& ThreadedRuntime::ShardForThisThread() {
  if (t_shard.runtime_uid == runtime_uid_ && t_shard.shard != nullptr) {
    return *t_shard.shard;
  }
  std::lock_guard<std::mutex> lk(sched_mu_);
  std::unique_ptr<net::NetStats>& slot =
      extra_shards_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<net::NetStats>();
  t_shard = TlsShard{runtime_uid_, slot.get(), false};
  return *slot;
}

net::NetStats& ThreadedRuntime::stats() { return ShardForThisThread(); }

const net::NetStats& ThreadedRuntime::stats() const {
  std::lock_guard<std::mutex> lk(sched_mu_);
  merged_.Clear();
  for (const net::NetStats& shard : worker_shards_) merged_.MergeFrom(shard);
  for (const auto& [tid, shard] : extra_shards_) {
    (void)tid;
    merged_.MergeFrom(*shard);
  }
  return merged_;
}

bool ThreadedRuntime::AccountSend(net::Message& msg, net::NetStats& shard) {
  // Mirrors Simulator::Send's accounting exactly (net/simulator.cc): wire
  // size defaulted once, kind interned once, drops tallied but never
  // delivered.
  if (msg.size_bytes == 0) {
    msg.size_bytes = msg.header.size() + msg.body().size();
  }
  if (msg.kind_id == net::kNoKind) msg.kind_id = net::InternKind(msg.kind);
  shard.messages++;
  shard.bytes += msg.size_bytes;
  shard.messages_by_kind.Slot(msg.kind_id)++;
  shard.bytes_by_kind.Slot(msg.kind_id) += msg.size_bytes;
  if (msg.from < failed_.size() && failed_[msg.from]) {
    shard.drops_from_failed++;
    return false;
  }
  if (msg.to >= nodes_.size() || failed_[msg.to]) {
    shard.drops_to_failed++;
    return false;
  }
  return true;
}

void ThreadedRuntime::MarkReadyLocked(net::PeerId id) {
  Mailbox& mb = mailboxes_[id];
  if (!mb.active && !mb.ready && !mb.queue.empty()) {
    mb.ready = true;
    ready_.push_back(id);
  }
}

void ThreadedRuntime::Send(net::Message msg) {
  net::NetStats& shard = ShardForThisThread();
  std::unique_lock<std::mutex> lk(sched_mu_);
  if (stopping_) return;
  if (!AccountSend(msg, shard)) return;
  const net::PeerId to = msg.to;
  Mailbox& mb = mailboxes_[to];
  if (mb.queue.size() >= options_.mailbox_capacity) {
    const bool worker = t_shard.is_worker && t_shard.runtime_uid == runtime_uid_;
    if (worker || !workers_started_ || timers_firing_) {
      // A worker must never block on a full mailbox (two full peers
      // sending to each other would deadlock); before the pool is live
      // there is nobody to make space; and while a barrier's timers
      // fire the pool is deliberately held back (see Run), so blocking
      // here would deadlock the driving thread. All three overflow.
      shard.mailbox_soft_overflows++;
    } else {
      shard.mailbox_backpressure_waits++;
      space_cv_.wait(lk, [&] {
        return mb.queue.size() < options_.mailbox_capacity || stopping_;
      });
      if (stopping_) return;
    }
  }
  mb.queue.push_back(std::move(msg));
  ++queued_messages_;
  MarkReadyLocked(to);
  work_cv_.notify_one();
}

void ThreadedRuntime::Schedule(double when, std::function<void()> fn) {
  ScheduleFor(net::kNoPeer, when, std::move(fn));
}

void ThreadedRuntime::ScheduleFor(net::PeerId owner, double when,
                                  std::function<void()> fn) {
  net::NetStats& shard = ShardForThisThread();
  std::lock_guard<std::mutex> lk(sched_mu_);
  if (stopping_) return;
  const double now = now_.load(std::memory_order_relaxed);
  timer_heap_.push_back(
      Timer{when < now ? now : when, timer_seq_++, owner, std::move(fn)});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
  shard.events_scheduled++;
}

void ThreadedRuntime::Fail(net::PeerId id) {
  std::lock_guard<std::mutex> lk(sched_mu_);
  if (id < failed_.size()) failed_[id] = true;
}

void ThreadedRuntime::Recover(net::PeerId id) {
  std::lock_guard<std::mutex> lk(sched_mu_);
  if (id < failed_.size()) failed_[id] = false;
}

bool ThreadedRuntime::IsFailed(net::PeerId id) const {
  std::lock_guard<std::mutex> lk(sched_mu_);
  return id < failed_.size() && failed_[id];
}

bool ThreadedRuntime::Idle() const {
  std::lock_guard<std::mutex> lk(sched_mu_);
  return queued_messages_ == 0 && busy_workers_ == 0 && timer_heap_.empty();
}

void ThreadedRuntime::StartWorkersLocked() {
  if (workers_started_ || stopping_) return;
  workers_started_ = true;
  for (size_t i = 0; i < num_threads_; ++i) worker_shards_.emplace_back();
  workers_.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void ThreadedRuntime::WorkerLoop(size_t worker_index) {
  std::unique_lock<std::mutex> lk(sched_mu_);
  t_shard = TlsShard{runtime_uid_, &worker_shards_[worker_index], true};
  net::NetStats& shard = worker_shards_[worker_index];
  std::deque<net::Message> batch;
  for (;;) {
    // The pool holds back while a barrier's timers fire (timers_firing_):
    // a delivery racing a same-time timer callback of the same peer would
    // put two threads in one peer's handler state. Run() reopens the gate
    // after the last timer of the batch.
    work_cv_.wait(lk,
                  [&] { return stopping_ || (!timers_firing_ && !ready_.empty()); });
    if (stopping_) return;
    const net::PeerId id = ready_.front();
    ready_.pop_front();
    Mailbox& mb = mailboxes_[id];
    mb.ready = false;
    if (mb.active || mb.queue.empty()) continue;
    mb.active = true;
    ++busy_workers_;
    while (!mb.queue.empty() && !stopping_) {
      batch.clear();
      batch.swap(mb.queue);
      queued_messages_ -= batch.size();
      space_cv_.notify_all();
      const bool down = failed_[id];  // re-check at delivery time
      net::PeerNode* node = nodes_[id];
      lk.unlock();
      if (down) {
        // The peer failed after these were queued: the simulator's
        // in-transit drop, surfaced in the receiver-side tally.
        shard.drops_to_failed += batch.size();
      } else {
        for (const net::Message& m : batch) node->HandleMessage(m);
      }
      lk.lock();
      processed_ += batch.size();
    }
    mb.active = false;
    --busy_workers_;
    if (busy_workers_ == 0 && queued_messages_ == 0) idle_cv_.notify_all();
  }
}

size_t ThreadedRuntime::Run(double max_time) {
  std::unique_lock<std::mutex> lk(sched_mu_);
  StartWorkersLocked();
  const uint64_t delivered_before = processed_;
  size_t timers_fired = 0;
  for (;;) {
    // Quiescent barrier: every mailbox drained, every worker parked.
    idle_cv_.wait(lk, [&] {
      return (queued_messages_ == 0 && busy_workers_ == 0) || stopping_;
    });
    if (stopping_) break;
    if (timer_heap_.empty() || timer_heap_.front().when > max_time) break;
    // Advance the virtual clock to the earliest deadline and fire every
    // timer stamped with it, in schedule order — the simulator dispatches
    // equal-time events the same way, before any of the (strictly later)
    // deliveries they cause.
    const double t = timer_heap_.front().when;
    if (t > now_.load(std::memory_order_relaxed)) {
      now_.store(t, std::memory_order_relaxed);
    }
    // Hold the pool back for the whole batch: a callback's Send must not
    // wake a worker into delivering against a peer whose own time-t
    // callback has not run yet (the simulator likewise dispatches every
    // time-t event before any delivery they cause).
    timers_firing_ = true;
    while (!timer_heap_.empty() && timer_heap_.front().when <= t) {
      std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
      Timer timer = std::move(timer_heap_.back());
      timer_heap_.pop_back();
      lk.unlock();
      timer.fn();  // may Send / Schedule / Register
      lk.lock();
      ++timers_fired;
    }
    timers_firing_ = false;
    work_cv_.notify_all();
  }
  return static_cast<size_t>(processed_ - delivered_before) + timers_fired;
}

void ThreadedRuntime::Shutdown() {
  using namespace std::chrono_literals;
  std::unique_lock<std::mutex> lk(sched_mu_);
  if (!stopping_ && workers_started_) {
    // Graceful: give in-flight handler chains a bounded window to drain
    // before stopping the pool (a wedged handler must not hang teardown).
    idle_cv_.wait_for(lk, 30s, [&] {
      return queued_messages_ == 0 && busy_workers_ == 0;
    });
  }
  stopping_ = true;
  work_cv_.notify_all();
  space_cv_.notify_all();
  idle_cv_.notify_all();
  lk.unlock();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

}  // namespace mqp::runtime
