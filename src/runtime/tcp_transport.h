// TcpTransport: the same peers over real loopback sockets.
//
// The third net::Transport backend (DESIGN.md §8): every registered peer
// gets its own listening socket on 127.0.0.1 (port chosen by the
// kernel), messages travel as length-prefixed wire frames over cached
// outbound connections, and the clock is the wall clock. The peer stack
// runs unmodified — addresses ("127.0.0.1:<port>") flow through catalog
// entries and Lookup exactly like the simulator's virtual ones.
//
// Threading model. One accept thread per peer; one reader thread per
// accepted connection; one writer thread per outbound connection; one
// timer thread for Schedule/ScheduleFor. The Transport contract
// (handlers single-threaded per peer) is enforced with a per-peer
// delivery mutex: readers and timer callbacks lock the destination
// peer's mutex around HandleMessage / the callback, so concurrent
// connections to one peer serialize while distinct peers proceed in
// parallel. Stats are sharded per thread and merged on read, as in
// ThreadedRuntime.
//
// Outbound backpressure (DESIGN.md §11, parity with ThreadedRuntime's
// mailboxes). Send enqueues the framed message on the connection's
// queue, bounded at 1024 frames, and returns; the writer thread drains
// it to the socket. When the queue is full, an *external* sender blocks
// until the writer frees space (counted in
// NetStats::tcp_send_queue_waits), while a transport-internal thread — a
// reader mid-delivery or the timer thread — never blocks: it over-admits
// past the cap and counts tcp_send_soft_overflows, because parking the
// thread that drains peer A's inbox until peer B's outbox drains is how
// distributed deadlocks are built.
//
// Frame format (all integers little-endian uint32):
//   [rest-length][from][to][kind-len][kind][header-len][header]
//   [body-len][body]
//
// Run(max_time) has no event loop to drive: the work happens on the
// background threads. It blocks until the transport has been quiet (no
// delivery or timer fired) for a settle window and no timer is due
// before `max_time`, then reports how many events were processed while
// it watched. That is enough for the build-and-query workloads the
// loopback smoke test drives; long virtual-time scenarios (gossip
// horizons) belong on the simulator or the threaded runtime, where time
// is free.
//
// Shutdown is graceful and bounded: stop accepting, wait up to the
// drain timeout for quiet, then shut down every socket (unblocking the
// reader threads) and join them all. The destructor calls Shutdown.
#pragma once

#include <atomic>
#include <chrono>
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

struct TcpOptions {
  /// Run() declares quiescence after this long without any delivery or
  /// timer firing (wall-clock seconds).
  double settle_seconds = 0.15;
  /// Shutdown() waits at most this long for in-flight work to drain
  /// before closing sockets out from under the readers.
  double drain_timeout_seconds = 5.0;
};

/// \brief Loopback-TCP transport: per-peer listening sockets, framed
/// messages, wall-clock time.
class TcpTransport : public net::Transport {
 public:
  explicit TcpTransport(TcpOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// False when socket setup failed (no loopback in the environment);
  /// callers should skip TCP-dependent work. Sticky once any Register
  /// fails.
  bool ok() const { return ok_.load(std::memory_order_relaxed); }

  // --- net::Transport -------------------------------------------------------

  net::PeerId Register(net::PeerNode* node) override;
  size_t size() const override;
  const std::string& Address(net::PeerId id) const override;
  Result<net::PeerId> Lookup(std::string_view address) const override;

  /// Wall-clock seconds since construction.
  double now() const override;

  void Send(net::Message msg) override;
  void Schedule(double when, std::function<void()> fn) override;
  void ScheduleFor(net::PeerId owner, double when,
                   std::function<void()> fn) override;

  void Fail(net::PeerId id) override;
  void Recover(net::PeerId id) override;
  bool IsFailed(net::PeerId id) const override;

  /// Blocks until quiet (see header notes) or `max_time` on the wall
  /// clock; returns events processed while waiting.
  size_t Run(double max_time = 1e9) override;

  bool Idle() const override;

  net::NetStats& stats() override;
  const net::NetStats& stats() const override;

  // --- runtime-specific -----------------------------------------------------

  /// Graceful stop: drain (bounded), close sockets, join every thread.
  /// Idempotent; Send/Schedule become no-ops afterwards.
  void Shutdown();

 private:
  struct PeerSlot {
    net::PeerNode* node = nullptr;
    int listen_fd = -1;
    uint16_t port = 0;
    std::thread accept_thread;
    /// Serializes HandleMessage and ScheduleFor callbacks for this peer.
    std::mutex deliver_mu;
  };

  struct Connection {
    int fd = -1;
    std::mutex mu;  ///< guards queue/closed/write_failed
    std::condition_variable has_data;   ///< frame queued, or closing
    std::condition_variable can_write;  ///< space freed, or closing
    std::deque<std::string> queue;      ///< framed messages, FIFO
    bool closed = false;        ///< shutdown: writer exits when drained
    bool write_failed = false;  ///< peer hung up: enqueues become drops
    std::thread writer;
  };

  struct Timer {
    double when;
    uint64_t seq;
    net::PeerId owner;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  void AcceptLoop(net::PeerId id);
  void ReaderLoop(net::PeerId id, int fd);
  void WriterLoop(Connection* conn);
  void TimerLoop();

  /// The cached (or freshly connected) outbound connection to `to`;
  /// null when connecting failed.
  Connection* ConnectionTo(net::PeerId to);

  /// Delivers a decoded frame to its destination under the peer's
  /// delivery mutex. Counts into the calling (reader) thread's shard.
  void Deliver(net::Message msg);

  net::NetStats& ShardForThisThread();
  void NoteEvent();  ///< bumps the activity counter Run() watches

  /// Release/acquire edge pairing finished shard writes with a future
  /// merged stats() read (an empty stats_mu_ critical section).
  void PublishShard();

  const TcpOptions options_;
  const uint64_t transport_uid_;
  const std::chrono::steady_clock::time_point epoch_;

  std::atomic<bool> ok_{true};
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;  ///< registry: slots, addresses, failed, conns
  std::deque<PeerSlot> slots_;  ///< deque: stable addresses
  std::vector<std::string> addresses_;
  std::map<std::string, net::PeerId, std::less<>> by_address_;
  std::vector<bool> failed_;
  std::map<net::PeerId, std::unique_ptr<Connection>> outbound_;
  std::vector<std::thread> reader_threads_;

  // Timer machinery.
  mutable std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::vector<Timer> timer_heap_;  ///< min-heap via std::greater
  uint64_t timer_seq_ = 0;
  std::thread timer_thread_;

  // Activity accounting for Run()'s settle detection.
  std::atomic<uint64_t> events_{0};

  // Stats shards (same scheme as ThreadedRuntime, keyed by thread id).
  mutable std::mutex stats_mu_;
  std::map<std::thread::id, std::unique_ptr<net::NetStats>> shards_;
  mutable net::NetStats merged_;
};

}  // namespace mqp::runtime
