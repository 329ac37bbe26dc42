// ThreadedRuntime: the same peers, all cores.
//
// A net::Transport implementation that dispatches peer handlers on a
// thread pool instead of a single event loop (DESIGN.md §8). Each peer
// owns a bounded mailbox; a worker drains one peer's mailbox at a time,
// so handlers stay single-threaded *per peer* (the Transport contract)
// while different peers run concurrently.
//
// Time is virtual and advances only at quiescent barriers: Run() lets
// the pool drain every mailbox, then — with all workers parked — pops
// the earliest-deadline timers on the driving thread, advances now(),
// and releases the pool again. The pool stays parked for the *whole*
// timer batch: a callback's Send must not wake a worker into a peer
// whose own time-t callback has not fired yet (two threads in one
// peer's handler state), and the simulator likewise runs every time-t
// event before any delivery it causes. Messages deliver at the virtual
// time of their send (no latency model), so a burst of cross-peer
// traffic is one parallel drain rather than a serialized event
// sequence. The workload
// stack (garage-sale builder, gossip horizon, churn driver) runs on this
// backend unmodified; equivalence with the simulator is tested over a
// 1000-seed suite (tests/runtime_test.cc).
//
// Backpressure: mailboxes are bounded. An *external* sender (a thread
// that is not one of the pool's workers — e.g. a client thread feeding
// queries) blocks until space frees, counted in
// NetStats::mailbox_backpressure_waits. A *worker* never blocks on a
// full mailbox — two full peers sending to each other would deadlock —
// it overflows the bound and counts mailbox_soft_overflows instead.
//
// Stats are sharded per thread (workers and the driving thread each own
// a NetStats) and merged on read; merges happen under the scheduler
// mutex the workers park on, so a merged read at quiescence is exact and
// race-free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/message.h"
#include "net/transport.h"

namespace mqp::runtime {

struct RuntimeOptions {
  /// Worker threads in the pool. 0 means hardware_concurrency().
  size_t num_threads = 0;
  /// Mailbox bound per peer; senders outside the pool block when a
  /// mailbox is full (workers overflow instead — see header notes).
  size_t mailbox_capacity = 4096;
};

/// \brief Thread-pool transport: per-peer mailboxes, barrier-stepped
/// virtual time, per-thread stats shards.
class ThreadedRuntime : public net::Transport {
 public:
  explicit ThreadedRuntime(RuntimeOptions options = {});
  ~ThreadedRuntime() override;

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  // --- net::Transport -------------------------------------------------------

  /// Must be called from the driving thread while quiescent (before Run,
  /// or from a timer callback — churn joiners do the latter).
  net::PeerId Register(net::PeerNode* node) override;

  size_t size() const override;
  const std::string& Address(net::PeerId id) const override;
  Result<net::PeerId> Lookup(std::string_view address) const override;

  /// Virtual time: advances only at Run()'s quiescent barriers.
  double now() const override;

  void Send(net::Message msg) override;
  void Schedule(double when, std::function<void()> fn) override;
  void ScheduleFor(net::PeerId owner, double when,
                   std::function<void()> fn) override;

  void Fail(net::PeerId id) override;
  void Recover(net::PeerId id) override;
  bool IsFailed(net::PeerId id) const override;

  /// Drives the runtime from the calling (driving) thread: repeatedly
  /// lets the pool drain all mailboxes, then fires due timers, until
  /// both are empty or the next timer lies beyond `max_time`. Returns
  /// deliveries + timer callbacks processed.
  size_t Run(double max_time = 1e9) override;

  bool Idle() const override;

  /// The calling thread's writable shard (workers and externals get
  /// their own; the driving thread owns the base shard).
  net::NetStats& stats() override;
  /// Merged view of every shard — exact at quiescence.
  const net::NetStats& stats() const override;

  // --- runtime-specific -----------------------------------------------------

  size_t num_threads() const { return num_threads_; }

  /// Drains outstanding work (bounded wait) and joins the pool.
  /// Idempotent. After Shutdown, Send/Schedule are no-ops. The
  /// destructor stops the pool WITHOUT draining — call Shutdown first
  /// when pending mail must be delivered.
  void Shutdown();

 private:
  struct Mailbox {
    std::deque<net::Message> queue;
    bool active = false;  ///< a worker is draining this peer right now
    bool ready = false;   ///< queued in ready_ (avoid duplicate entries)
  };

  struct Timer {
    double when;
    uint64_t seq;
    net::PeerId owner;  // kNoPeer: global callback (churn driver etc.)
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  /// One worker's parked loop: claim a ready peer, drain a batch of its
  /// mailbox, repeat; park on work_cv_ when nothing is ready.
  void WorkerLoop(size_t worker_index);

  /// Pushes `id` onto the ready queue if it needs draining (caller holds
  /// sched_mu_).
  void MarkReadyLocked(net::PeerId id);

  /// The calling thread's shard, creating it on first use.
  net::NetStats& ShardForThisThread();

  /// Tallies a send into the caller's shard and decides droppage.
  /// Returns false when the message must not be enqueued.
  bool AccountSend(net::Message& msg, net::NetStats& shard);

  void StartWorkersLocked();

  const RuntimeOptions options_;
  size_t num_threads_;

  /// Process-unique id for the thread-local shard cache: a worker caches
  /// (runtime_uid_, shard*) and revalidates on every use, so a stale
  /// cache from a destroyed runtime at a reused address can never match.
  const uint64_t runtime_uid_;

  mutable std::mutex sched_mu_;
  std::condition_variable work_cv_;   ///< workers park here
  std::condition_variable idle_cv_;   ///< Run() waits for quiescence here
  std::condition_variable space_cv_;  ///< external senders block here

  // All guarded by sched_mu_ unless noted.
  std::vector<net::PeerNode*> nodes_;
  std::vector<bool> failed_;
  std::deque<std::string> addresses_;  ///< deque: Address() hands out
                                       ///< references that must survive
                                       ///< mid-run Register (churn joins)
  std::deque<Mailbox> mailboxes_;  ///< deque: stable addresses on growth
  std::deque<net::PeerId> ready_;  ///< peers with undrained mail
  std::vector<Timer> timer_heap_;  ///< min-heap via std::greater
  uint64_t timer_seq_ = 0;
  size_t busy_workers_ = 0;
  size_t queued_messages_ = 0;  ///< total undelivered mail across peers
  uint64_t processed_ = 0;      ///< deliveries, cumulative
  bool workers_started_ = false;
  bool timers_firing_ = false;  ///< pool held back during a timer batch
  bool stopping_ = false;

  std::vector<std::thread> workers_;

  /// now() is read lock-free from handler threads; written only at
  /// barriers while the pool is parked.
  std::atomic<double> now_{0};

  /// Stats shards. Workers index worker_shards_ by their pool slot;
  /// other threads (the driver, external senders) get a slot in
  /// extra_shards_ keyed by thread id. Guarded by sched_mu_ for
  /// creation and merge; each shard is written only by its owner.
  std::deque<net::NetStats> worker_shards_;
  std::map<std::thread::id, std::unique_ptr<net::NetStats>> extra_shards_;
  mutable net::NetStats merged_;  ///< scratch for stats() const
};

}  // namespace mqp::runtime
