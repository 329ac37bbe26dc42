#include "runtime/tcp_transport.h"

#if defined(__unix__) || defined(__APPLE__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "net/kind_table.h"

namespace mqp::runtime {
namespace {

std::atomic<uint64_t> g_tcp_uid{1};

// Thread-local shard cache, revalidated against the transport uid so a
// reader thread of a destroyed transport can never write through a stale
// pointer (same scheme as threaded_runtime.cc).
struct TlsShard {
  uint64_t uid = 0;
  net::NetStats* shard = nullptr;
};
thread_local TlsShard tls_shard;

// True on threads the transport itself owns (readers, timer): those
// threads must never block on a full send queue — a reader parked on
// peer B's outbox stops draining peer A's inbox, and two such parks
// facing each other deadlock the fabric. They soft-overflow instead.
thread_local bool tls_transport_thread = false;

// Per-connection outbound queue bound, in frames (see the header notes).
constexpr size_t kSendQueueCap = 1024;

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Reads exactly `len` bytes; false on EOF/error (connection is done).
bool ReadFull(int fd, char* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const char* buf, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Frames cap at 64 MiB — far above any real payload, low enough that a
// corrupt length prefix cannot trigger a giant allocation.
constexpr uint32_t kMaxFrame = 64u << 20;

}  // namespace

TcpTransport::TcpTransport(TcpOptions options)
    : options_(options),
      transport_uid_(g_tcp_uid.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

TcpTransport::~TcpTransport() { Shutdown(); }

net::PeerId TcpTransport::Register(net::PeerNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  const net::PeerId id = static_cast<net::PeerId>(slots_.size());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned
  socklen_t alen = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), alen) != 0 ||
      ::listen(fd, 64) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
    if (fd >= 0) ::close(fd);
    ok_.store(false, std::memory_order_relaxed);
    // Register the peer anyway so ids stay dense; it just cannot hear.
    slots_.emplace_back();
    slots_.back().node = node;
    addresses_.push_back("127.0.0.1:0");
    failed_.push_back(false);
    return id;
  }

  slots_.emplace_back();
  PeerSlot& slot = slots_.back();
  slot.node = node;
  slot.listen_fd = fd;
  slot.port = ntohs(addr.sin_port);
  addresses_.push_back("127.0.0.1:" + std::to_string(slot.port));
  by_address_[addresses_.back()] = id;
  failed_.push_back(false);
  slot.accept_thread = std::thread([this, id] { AcceptLoop(id); });
  return id;
}

size_t TcpTransport::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

const std::string& TcpTransport::Address(net::PeerId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  static const std::string kUnknown = "unknown:0";
  return id < addresses_.size() ? addresses_[id] : kUnknown;
}

Result<net::PeerId> TcpTransport::Lookup(std::string_view address) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_address_.find(address);
  if (it == by_address_.end()) {
    return Status::NotFound("unknown address: " + std::string(address));
  }
  return it->second;
}

double TcpTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

net::NetStats& TcpTransport::ShardForThisThread() {
  if (tls_shard.uid == transport_uid_) return *tls_shard.shard;
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto& slot = shards_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<net::NetStats>();
  tls_shard = {transport_uid_, slot.get()};
  return *slot;
}

net::NetStats& TcpTransport::stats() { return ShardForThisThread(); }

const net::NetStats& TcpTransport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  merged_.Clear();
  for (const auto& [tid, shard] : shards_) merged_.MergeFrom(*shard);
  return merged_;
}

void TcpTransport::NoteEvent() {
  events_.fetch_add(1, std::memory_order_relaxed);
}

void TcpTransport::PublishShard() {
  // An empty critical section: pairs the calling thread's finished
  // shard writes with a future merge under stats_mu_ (the release/
  // acquire edge Run()'s settle poll cannot provide — sleeping is not
  // synchronization). Called after every delivery, timer callback and
  // external send, so a merge at quiescence happens-after every
  // completed unit of work. A merge racing a *still-running* handler
  // remains approximate; the contract promises exactness only at
  // quiescence.
  std::lock_guard<std::mutex> lock(stats_mu_);
}

void TcpTransport::Send(net::Message msg) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  // Same accounting contract as Simulator::Send: wire size defaults to
  // header + body, every send is counted, down senders/receivers drop.
  if (msg.size_bytes == 0) {
    msg.size_bytes = msg.header.size() + msg.body().size();
  }
  if (msg.kind_id == net::kNoKind) msg.kind_id = net::InternKind(msg.kind);
  net::NetStats& shard = ShardForThisThread();
  shard.messages++;
  shard.bytes += msg.size_bytes;
  shard.messages_by_kind.Slot(msg.kind_id)++;
  shard.bytes_by_kind.Slot(msg.kind_id) += msg.size_bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (msg.from < failed_.size() && failed_[msg.from]) {
      shard.drops_from_failed++;
      return;
    }
    if (msg.to >= slots_.size() || failed_[msg.to]) {
      shard.drops_to_failed++;
      return;
    }
  }

  Connection* conn = ConnectionTo(msg.to);
  if (conn == nullptr) {
    shard.drops_to_failed++;
    return;
  }
  std::string frame;
  const std::string& body = msg.body();
  frame.reserve(4 * 6 + msg.kind.size() + msg.header.size() + body.size());
  PutU32(&frame, 0);  // patched below
  PutU32(&frame, msg.from);
  PutU32(&frame, msg.to);
  PutU32(&frame, static_cast<uint32_t>(msg.kind.size()));
  frame += msg.kind;
  PutU32(&frame, static_cast<uint32_t>(msg.header.size()));
  frame += msg.header;
  PutU32(&frame, static_cast<uint32_t>(body.size()));
  frame += body;
  const uint32_t rest = static_cast<uint32_t>(frame.size() - 4);
  std::memcpy(frame.data(), &rest, 4);

  {
    std::unique_lock<std::mutex> wl(conn->mu);
    if (conn->closed || conn->write_failed) {
      // Receiver hung up (shutdown race); treat like a down destination.
      shard.drops_to_failed++;
      PublishShard();
      return;
    }
    if (conn->queue.size() >= kSendQueueCap) {
      if (tls_transport_thread) {
        shard.tcp_send_soft_overflows++;
      } else {
        shard.tcp_send_queue_waits++;
        conn->can_write.wait(wl, [&] {
          return conn->queue.size() < kSendQueueCap || conn->closed ||
                 conn->write_failed;
        });
        if (conn->closed || conn->write_failed) {
          shard.drops_to_failed++;
          PublishShard();
          return;
        }
      }
    }
    conn->queue.push_back(std::move(frame));
  }
  conn->has_data.notify_one();
  PublishShard();
}

void TcpTransport::WriterLoop(Connection* conn) {
  tls_transport_thread = true;
  std::unique_lock<std::mutex> lk(conn->mu);
  while (true) {
    conn->has_data.wait(
        lk, [&] { return !conn->queue.empty() || conn->closed; });
    if (conn->queue.empty()) return;  // closed and drained
    if (conn->closed) {
      // Shutdown dropped the socket out from under us; whatever is
      // still queued will never arrive.
      ShardForThisThread().drops_to_failed += conn->queue.size();
      conn->queue.clear();
      conn->can_write.notify_all();
      return;
    }
    std::string frame = std::move(conn->queue.front());
    conn->queue.pop_front();
    conn->can_write.notify_one();
    const int fd = conn->fd;
    lk.unlock();
    const bool wrote = WriteFull(fd, frame.data(), frame.size());
    lk.lock();
    if (!wrote && !conn->write_failed) {
      // Receiver hung up: this frame and everything behind it are gone.
      conn->write_failed = true;
      ShardForThisThread().drops_to_failed += conn->queue.size() + 1;
      conn->queue.clear();
      conn->can_write.notify_all();
      PublishShard();
    }
  }
}

TcpTransport::Connection* TcpTransport::ConnectionTo(net::PeerId to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = outbound_.find(to);
    if (it != outbound_.end()) return it->second.get();
  }
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (to >= slots_.size() || slots_[to].port == 0) return nullptr;
    port = slots_[to].port;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = outbound_.try_emplace(to);
  if (!inserted) {
    // Lost the connect race; keep the established cache entry.
    ::close(fd);
    return it->second.get();
  }
  it->second = std::make_unique<Connection>();
  Connection* conn = it->second.get();
  conn->fd = fd;
  // The Connection lives behind a unique_ptr in outbound_ and outlives
  // its writer: Shutdown joins the writer before destroying the map.
  conn->writer = std::thread([this, conn] { WriterLoop(conn); });
  return conn;
}

void TcpTransport::AcceptLoop(net::PeerId id) {
  int listen_fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    listen_fd = slots_[id].listen_fd;
  }
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // listener shut down
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    reader_threads_.emplace_back([this, id, fd] { ReaderLoop(id, fd); });
  }
}

void TcpTransport::ReaderLoop(net::PeerId id, int fd) {
  tls_transport_thread = true;
  char head[4];
  std::string rest;
  while (ReadFull(fd, head, 4)) {
    const uint32_t len = GetU32(head);
    if (len < 16 || len > kMaxFrame) break;  // corrupt frame
    rest.resize(len);
    if (!ReadFull(fd, rest.data(), len)) break;
    const char* p = rest.data();
    const char* end = p + len;
    net::Message msg;
    msg.from = GetU32(p);
    msg.to = GetU32(p + 4);
    const uint32_t kind_len = GetU32(p + 8);
    p += 12;
    if (p + kind_len + 4 > end) break;
    msg.kind.assign(p, kind_len);
    p += kind_len;
    const uint32_t header_len = GetU32(p);
    p += 4;
    if (p + header_len + 4 > end) break;
    msg.header.assign(p, header_len);
    p += header_len;
    const uint32_t body_len = GetU32(p);
    p += 4;
    if (p + body_len != end) break;
    msg.payload = net::MakePayload(std::string(p, body_len));
    msg.size_bytes = msg.header.size() + body_len;
    msg.kind_id = net::InternKind(msg.kind);
    if (msg.to != id) break;  // misrouted frame: drop the connection
    Deliver(std::move(msg));
  }
  ::close(fd);
}

void TcpTransport::Deliver(net::Message msg) {
  PeerSlot* slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (msg.to >= slots_.size()) return;
    slot = failed_[msg.to] ? nullptr : &slots_[msg.to];
  }
  if (slot == nullptr) {
    // Went down while the frame was in flight: counted in
    // drops_to_failed like every backend (DESIGN.md §9).
    ShardForThisThread().drops_to_failed++;
    PublishShard();
    return;
  }
  {
    std::lock_guard<std::mutex> dl(slot->deliver_mu);
    slot->node->HandleMessage(msg);
  }
  PublishShard();
  NoteEvent();
}

void TcpTransport::Schedule(double when, std::function<void()> fn) {
  ScheduleFor(net::kNoPeer, when, std::move(fn));
}

void TcpTransport::ScheduleFor(net::PeerId owner, double when,
                               std::function<void()> fn) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  ShardForThisThread().events_scheduled++;
  std::lock_guard<std::mutex> lock(timer_mu_);
  timer_heap_.push_back(Timer{when, timer_seq_++, owner, std::move(fn)});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                 std::greater<Timer>());
  timer_cv_.notify_one();
}

void TcpTransport::TimerLoop() {
  tls_transport_thread = true;
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const double due_in = timer_heap_.front().when - now();
    if (due_in > 0) {
      timer_cv_.wait_for(lock, std::chrono::duration<double>(due_in));
      continue;
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(),
                  std::greater<Timer>());
    Timer t = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    lock.unlock();
    if (t.owner != net::kNoPeer) {
      PeerSlot* slot = nullptr;
      {
        std::lock_guard<std::mutex> rl(mu_);
        if (t.owner < slots_.size()) slot = &slots_[t.owner];
      }
      if (slot != nullptr) {
        std::lock_guard<std::mutex> dl(slot->deliver_mu);
        t.fn();
      }
    } else {
      t.fn();
    }
    PublishShard();
    NoteEvent();
    lock.lock();
  }
}

void TcpTransport::Fail(net::PeerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < failed_.size()) failed_[id] = true;
}

void TcpTransport::Recover(net::PeerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < failed_.size()) failed_[id] = false;
}

bool TcpTransport::IsFailed(net::PeerId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < failed_.size() && failed_[id];
}

bool TcpTransport::Idle() const {
  std::lock_guard<std::mutex> lock(timer_mu_);
  return timer_heap_.empty();
}

size_t TcpTransport::Run(double max_time) {
  const uint64_t start_events = events_.load(std::memory_order_relaxed);
  uint64_t last = start_events;
  auto quiet_since = std::chrono::steady_clock::now();
  while (now() < max_time) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bool timer_due;
    {
      std::lock_guard<std::mutex> lock(timer_mu_);
      timer_due =
          !timer_heap_.empty() && timer_heap_.front().when <= max_time;
    }
    const uint64_t cur = events_.load(std::memory_order_relaxed);
    if (cur != last || timer_due) {
      last = cur;
      quiet_since = std::chrono::steady_clock::now();
      continue;
    }
    const double quiet =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      quiet_since)
            .count();
    if (quiet >= options_.settle_seconds) break;
  }
  return static_cast<size_t>(events_.load(std::memory_order_relaxed) -
                             start_events);
}

void TcpTransport::Shutdown() {
  if (stopping_.exchange(true)) {
    if (timer_thread_.joinable()) timer_thread_.join();
    return;
  }
  // Bounded drain: give in-flight frames a chance to deliver.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(options_.drain_timeout_seconds);
  uint64_t last = events_.load(std::memory_order_relaxed);
  auto quiet_since = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t cur = events_.load(std::memory_order_relaxed);
    if (cur != last) {
      last = cur;
      quiet_since = std::chrono::steady_clock::now();
      continue;
    }
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      quiet_since)
            .count() >= options_.settle_seconds) {
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_cv_.notify_all();
  }
  if (timer_thread_.joinable()) timer_thread_.join();

  // Shut the sockets down first (unblocks accept/recv and any writer
  // mid-send), then join. Connection fds close only after their writer
  // thread is joined, so a writer never races a closed-and-reused fd.
  std::vector<std::thread> accepters;
  std::vector<std::thread> readers;
  std::vector<std::thread> writers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (PeerSlot& slot : slots_) {
      if (slot.listen_fd >= 0) {
        ::shutdown(slot.listen_fd, SHUT_RDWR);
        ::close(slot.listen_fd);
        slot.listen_fd = -1;
      }
      if (slot.accept_thread.joinable()) {
        accepters.push_back(std::move(slot.accept_thread));
      }
    }
    for (auto& [id, conn] : outbound_) {
      {
        std::lock_guard<std::mutex> cl(conn->mu);
        conn->closed = true;
      }
      conn->has_data.notify_all();
      conn->can_write.notify_all();
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      if (conn->writer.joinable()) {
        writers.push_back(std::move(conn->writer));
      }
    }
    readers.swap(reader_threads_);
  }
  for (std::thread& t : writers) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : outbound_) {
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
    }
  }
  for (std::thread& t : accepters) t.join();
  // Reader sockets are owned by the readers themselves; shutting down
  // their peers' outbound fds above sent them EOF. Any reader blocked on
  // a half-open connection is unblocked by its own ::recv failing once
  // the process-wide close storm lands; join them all.
  for (std::thread& t : readers) t.join();
}

}  // namespace mqp::runtime

#else  // non-POSIX: stub that reports unavailability

namespace mqp::runtime {

TcpTransport::TcpTransport(TcpOptions options)
    : options_(options), transport_uid_(0), epoch_() {
  ok_.store(false, std::memory_order_relaxed);
}
TcpTransport::~TcpTransport() = default;
net::PeerId TcpTransport::Register(net::PeerNode*) { return net::kNoPeer; }
size_t TcpTransport::size() const { return 0; }
const std::string& TcpTransport::Address(net::PeerId) const {
  static const std::string kNone = "unknown:0";
  return kNone;
}
Result<net::PeerId> TcpTransport::Lookup(std::string_view) const {
  return Status::Unimplemented("TcpTransport requires POSIX sockets");
}
double TcpTransport::now() const { return 0; }
void TcpTransport::Send(net::Message) {}
void TcpTransport::Schedule(double, std::function<void()>) {}
void TcpTransport::ScheduleFor(net::PeerId, double, std::function<void()>) {}
void TcpTransport::Fail(net::PeerId) {}
void TcpTransport::Recover(net::PeerId) {}
bool TcpTransport::IsFailed(net::PeerId) const { return false; }
size_t TcpTransport::Run(double) { return 0; }
bool TcpTransport::Idle() const { return true; }
net::NetStats& TcpTransport::stats() { return merged_; }
const net::NetStats& TcpTransport::stats() const { return merged_; }
void TcpTransport::Shutdown() {}

}  // namespace mqp::runtime

#endif
