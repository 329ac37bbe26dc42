#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <unordered_set>

#include "algebra/plan_xml.h"
#include "catalog/catalog.h"
#include "engine/operator.h"
#include "optimizer/cost.h"
#include "optimizer/evaluable.h"
#include "optimizer/policy.h"
#include "optimizer/rewrites.h"
#include "peer/peer.h"

namespace {

// Allocation counter behind the operator-new hook below: per thread, so
// the hook costs one thread-local increment and a span reads its own
// thread's count without synchronization.
thread_local uint64_t t_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2e {

using mqp::net::Message;
using mqp::net::PeerId;
using mqp::net::PeerNode;

namespace {

// The span open on this thread (0: none), and the allocations the tracer
// itself made while it was open — those are not the span's.
thread_local uint32_t t_current_span = 0;
thread_local uint64_t t_tracer_allocs = 0;

// This thread's span buffer, revalidated by tracer uid so a buffer of a
// destroyed tracer is never reused.
struct BufCache {
  uint64_t uid = 0;
  void* buf = nullptr;
};
thread_local BufCache t_buf;

std::atomic<uint64_t> g_next_uid{1};

constexpr const char* kKindNames[kNumKinds] = {
    "mqp",      "result",     "fetch",      "fetch-reply",
    "subquery", "subquery-reply", "register", "cancel",
    "sync-digest", "sync-delta", "other",    "timer"};

// FNV-1a of the query id in a wire header — "w1|kind|qid|hops\n" or
// "w2|kind|qid|hops|deadline-ms|attempt\n". The id may itself contain
// '|', so it is delimited from the right.
uint64_t QueryHash(const std::string& header) {
  if (header.size() < 4 || header[0] != 'w') return 0;
  const size_t kind_end = header.find('|', 3);
  if (kind_end == std::string::npos) return 0;
  size_t end = header.size();
  if (header[end - 1] == '\n') --end;
  const int trailing = header[1] == '2' ? 3 : 1;
  for (int i = 0; i < trailing; ++i) {
    end = header.rfind('|', end - 1);
    if (end == std::string::npos || end <= kind_end) return 0;
  }
  uint64_t h = 1469598103934665603ull;
  for (size_t i = kind_end + 1; i < end; ++i) {
    h ^= static_cast<unsigned char>(header[i]);
    h *= 1099511628211ull;
  }
  return h;
}

double Median(std::vector<double>* v) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  return (*v)[v->size() / 2];
}

void CollectUrns(mqp::algebra::PlanNode* node,
                 std::unordered_set<const void*>* seen,
                 std::vector<mqp::algebra::PlanNode*>* out) {
  if (!seen->insert(node).second) return;
  if (node->type() == mqp::algebra::OpType::kUrn) out->push_back(node);
  for (const auto& c : node->children()) CollectUrns(c.get(), seen, out);
}

}  // namespace

uint64_t ThreadAllocs() { return t_allocs; }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Kind KindOf(const std::string& kind) {
  for (int k = 0; k < kOther; ++k) {
    if (kind == kKindNames[k]) return static_cast<Kind>(k);
  }
  return kOther;
}

const char* KindName(Kind k) { return kKindNames[k]; }

struct TracingTransport::ThreadBuf {
  std::vector<Span> spans;
  uint16_t index = 0;
};

struct TracingTransport::Shim : PeerNode {
  TracingTransport* owner = nullptr;
  PeerNode* node = nullptr;
  PeerId id = mqp::net::kNoPeer;

  void HandleMessage(const Message& msg) override {
    const Kind kind = KindOf(msg.kind);
    const SendKey key{msg.payload.get(), id};
    owner->InSpan(kind, id, QueryHash(msg.header), &key, 0,
                  [this, &msg] { node->HandleMessage(msg); });
    if (kind == kMqp && msg.payload != nullptr &&
        owner->phase_->load(std::memory_order_relaxed) == kCount) {
      std::lock_guard<std::mutex> lk(owner->captures_mu_);
      if (owner->captures_.size() < owner->max_captures_) {
        owner->captures_.push_back(
            {msg.payload, dynamic_cast<mqp::peer::Peer*>(node)});
      }
    }
  }
};

TracingTransport::TracingTransport(mqp::net::Transport* inner,
                                   const std::atomic<int>* phase,
                                   size_t max_captures)
    : inner_(inner),
      phase_(phase),
      max_captures_(max_captures),
      uid_(g_next_uid.fetch_add(1)) {}

TracingTransport::~TracingTransport() = default;

TracingTransport::ThreadBuf& TracingTransport::Buf() {
  if (t_buf.uid != uid_) {
    std::lock_guard<std::mutex> lk(bufs_mu_);
    auto buf = std::make_unique<ThreadBuf>();
    buf->index = static_cast<uint16_t>(bufs_.size());
    buf->spans.reserve(1 << 16);
    t_buf = {uid_, buf.get()};
    bufs_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuf*>(t_buf.buf);
}

void TracingTransport::InSpan(Kind kind, uint32_t peer, uint64_t query_hash,
                              const SendKey* key, uint32_t parent,
                              const std::function<void()>& fn) {
  ThreadBuf& buf = Buf();
  Span s;
  uint64_t sent_ns = 0;
  if (key != nullptr) {
    std::lock_guard<std::mutex> lk(sends_mu_);
    auto it = sends_.find(*key);
    if (it != sends_.end()) {
      s.matched = true;
      sent_ns = it->second.front().at_ns;
      parent = it->second.front().parent;
      it->second.pop_front();
      if (it->second.empty()) sends_.erase(it);
    }
  }
  s.id = next_span_.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.kind = kind;
  s.peer = peer;
  s.query_hash = query_hash;
  s.thread = buf.index;
  s.phase = static_cast<uint8_t>(phase_->load(std::memory_order_relaxed));

  const uint32_t outer = t_current_span;
  t_current_span = s.id;
  const uint64_t tracer_before = t_tracer_allocs;
  s.start_ns = NowNs();
  const uint64_t allocs_before = t_allocs;
  fn();
  const uint64_t allocs_after = t_allocs;
  s.end_ns = NowNs();
  t_current_span = outer;
  s.allocs = allocs_after - allocs_before - (t_tracer_allocs - tracer_before);
  if (s.matched && s.start_ns > sent_ns) s.wait_ns = s.start_ns - sent_ns;
  buf.spans.push_back(s);
}

std::function<void()> TracingTransport::WrapTimer(uint32_t owner,
                                                  std::function<void()> fn) {
  const uint64_t before = t_allocs;
  std::function<void()> wrapped =
      [this, owner, parent = t_current_span, fn = std::move(fn)] {
        InSpan(kTimer, owner, 0, nullptr, parent, fn);
      };
  t_tracer_allocs += t_allocs - before;
  return wrapped;
}

PeerId TracingTransport::Register(PeerNode* node) {
  auto shim = std::make_unique<Shim>();
  shim->owner = this;
  shim->node = node;
  Shim* raw = shim.get();
  shims_.push_back(std::move(shim));
  raw->id = inner_->Register(raw);
  return raw->id;
}

void TracingTransport::Send(Message msg) {
  const uint64_t before = t_allocs;
  {
    std::lock_guard<std::mutex> lk(sends_mu_);
    sends_[SendKey{msg.payload.get(), msg.to}].push_back(
        {NowNs(), t_current_span});
  }
  t_tracer_allocs += t_allocs - before;
  inner_->Send(std::move(msg));
}

void TracingTransport::Schedule(double when, std::function<void()> fn) {
  inner_->Schedule(when, WrapTimer(mqp::net::kNoPeer, std::move(fn)));
}

void TracingTransport::ScheduleFor(PeerId owner, double when,
                                   std::function<void()> fn) {
  inner_->ScheduleFor(owner, when, WrapTimer(owner, std::move(fn)));
}

size_t TracingTransport::Run(double max_time) {
  RunSpan r;
  r.start_ns = NowNs();
  const size_t events = inner_->Run(max_time);
  r.end_ns = NowNs();
  run_spans_.push_back(r);
  return events;
}

std::vector<Span> TracingTransport::Spans() const {
  std::lock_guard<std::mutex> lk(bufs_mu_);
  std::vector<Span> all;
  for (const auto& b : bufs_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool TracingTransport::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id\tparent\tthread\tpeer\tkind\tphase\tquery\tstart_ns\t"
               "end_ns\twait_ns\tallocs\n");
  for (const Span& s : Spans()) {
    std::fprintf(f, "%u\t%u\t%u\t%u\t%s\t%u\t%016llx\t%llu\t%llu\t%llu\t%llu\n",
                 s.id, s.parent, s.thread, s.peer, KindName(s.kind), s.phase,
                 static_cast<unsigned long long>(s.query_hash),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.wait_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

StageTimes ReplayStages(const std::vector<Capture>& captures, int repeats) {
  namespace algebra = mqp::algebra;
  namespace optimizer = mqp::optimizer;
  StageTimes total;
  std::vector<double> samples[6];
  for (const Capture& c : captures) {
    if (c.receiver == nullptr || c.body == nullptr) continue;
    mqp::peer::Peer& peer = *c.receiver;
    const std::string self = peer.address();
    optimizer::Locality locality;
    locality.is_local_url = [&self](const algebra::PlanNode& n) {
      return n.url() == self;
    };
    const optimizer::CostModel cost(peer.options().cost);
    const optimizer::PolicyManager policy(peer.options().policy);
    for (auto& s : samples) s.clear();
    for (int r = 0; r < repeats; ++r) {
      const uint64_t t0 = NowNs();
      auto parsed = algebra::ParsePlan(*c.body);
      const uint64_t t1 = NowNs();
      if (!parsed.ok() || parsed->root() == nullptr) break;
      algebra::Plan plan = std::move(parsed).value();
      algebra::PlanNode* root = plan.root().get();

      std::unordered_set<const void*> seen;
      std::vector<algebra::PlanNode*> urns;
      CollectUrns(root, &seen, &urns);
      for (algebra::PlanNode* u : urns) {
        auto binding = peer.catalog().Resolve(u->urn());
        if (binding.ok() && !binding->empty()) {
          u->MorphTo(*mqp::catalog::BindingToPlan(*binding));
        }
      }
      const uint64_t t2 = NowNs();

      optimizer::PushSelectThroughUnion(root);
      optimizer::EliminateOrNodes(root, locality, cost,
                                  optimizer::OrPreference::kCheapest);
      optimizer::ConsolidateJoins(root, locality);
      const auto candidates =
          optimizer::MaximalEvaluableSubplans(root, locality);
      const uint64_t t3 = NowNs();

      const auto decisions = policy.Decide(candidates, cost);
      const uint64_t t4 = NowNs();

      for (const auto& d : decisions) {
        if (!d.evaluate) continue;
        auto items = mqp::engine::Evaluate(*d.subplan, &peer.store());
        if (items.ok()) d.subplan->MorphToData(std::move(items).value());
      }
      const uint64_t t5 = NowNs();

      const std::string wire = algebra::SerializePlan(plan);
      const uint64_t t6 = NowNs();

      const uint64_t marks[7] = {t0, t1, t2, t3, t4, t5, t6};
      for (int s = 0; s < 6; ++s) {
        samples[s].push_back(static_cast<double>(marks[s + 1] - marks[s]));
      }
    }
    if (samples[0].empty()) continue;
    total.decode += Median(&samples[0]);
    total.resolve += Median(&samples[1]);
    total.rewrite += Median(&samples[2]);
    total.policy += Median(&samples[3]);
    total.evaluate += Median(&samples[4]);
    total.encode += Median(&samples[5]);
    ++total.hops;
  }
  if (total.hops > 0) {
    const double n = static_cast<double>(total.hops);
    total.decode /= n;
    total.resolve /= n;
    total.rewrite /= n;
    total.policy /= n;
    total.evaluate /= n;
    total.encode /= n;
  }
  return total;
}

}  // namespace e2e
