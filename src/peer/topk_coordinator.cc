#include "peer/topk_coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "algebra/walk.h"
#include "common/strings.h"
#include "engine/field_accessor.h"
#include "optimizer/rewrites.h"
#include "wire/body_codec.h"
#include "xml/token_writer.h"

namespace mqp::peer {

using algebra::OpType;
using algebra::Plan;
using algebra::PlanNode;
using algebra::PlanNodePtr;

namespace {

// DFS through non-distinct unions, collecting the TopN input's frontier
// in left-to-right order (the leaf numbering every participant shares).
// False on a repeated node: DAG sharing makes leaf positions ambiguous.
bool CollectTopKFrontier(const PlanNodePtr& node, algebra::NodeMarks* seen,
                         std::vector<PlanNodePtr>* out) {
  if (!seen->Insert(node.get())) return false;
  if (node->type() == OpType::kUnion && !node->distinct()) {
    for (const auto& c : node->children()) {
      if (!CollectTopKFrontier(c, seen, out)) return false;
    }
    return true;
  }
  out->push_back(node);
  return true;
}

uint64_t AttrU64(const xml::AttrList& attrs, std::string_view key,
                 uint64_t fallback) {
  const std::string* s = attrs.Find(key);
  uint64_t v = 0;
  return s != nullptr && mqp::ParseInteger(*s, &v) ? v : fallback;
}

// The (spec, bound) a node's TopKBound annotation asks for; false when
// it carries none.
bool TopKRequestOf(const PlanNode& node, engine::TopKSpec* spec,
                   engine::TopKBoundRef* bound) {
  const auto& topk = node.annotations().topk;
  if (!topk.has_value() || topk->k == 0 || topk->order_field.empty()) {
    return false;
  }
  *spec = engine::TopKSpec{topk->order_field, topk->ascending, topk->k};
  if (topk->has_bound) {
    bound->present = true;
    bound->key = topk->bound_key;
    bound->leaf = topk->bound_leaf;
  }
  return true;
}

}  // namespace

void TruncateForTopK(const PlanNode& node, algebra::ItemSet* items) {
  engine::TopKSpec spec;
  engine::TopKBoundRef bound;
  if (!TopKRequestOf(node, &spec, &bound)) return;
  *items = engine::TopKTruncate(*items, spec, bound,
                                node.annotations().topk->leaf);
}

// A bounded reply echoes the request's deadline/attempt so fault plans
// (DESIGN.md §9) treat each (cont, attempt) slice as a distinct,
// idempotently retryable exchange.
void SendItemReply(net::Transport* net, net::PeerId self, net::PeerId to,
                   const wire::Envelope& request,
                   const algebra::ItemSet* items, const PlanNode* root) {
  const char* kind =
      request.kind == wire::kFetchKind ? wire::kFetchReplyKind
                                       : wire::kSubqueryReplyKind;
  engine::TopKSpec spec;
  engine::TopKBoundRef bound;
  const bool bounded = items != nullptr && root != nullptr &&
                       TopKRequestOf(*root, &spec, &bound);
  std::string reply;
  xml::TokenWriter w(&reply);
  w.Start(kind);
  w.Attr("server", net->Address(self));
  if (bounded) {
    // Ship only the score-ordered prefix the coordinator's current bound
    // leaves eligible, from the continuation offset on.
    const algebra::TopKBound& ann = *root->annotations().topk;
    const engine::TopKSlice slice = engine::BoundedPrefix(
        *items, spec, bound, ann.leaf, ann.cont, ann.batch);
    w.Attr("tk", "1");
    w.Attr("total", slice.total);
    w.Attr("cont", slice.next_cont);
    w.Attr("more", slice.more ? "1" : "0");
    if (slice.more) w.Attr("next", slice.next_key);
    for (size_t idx : slice.ship) {
      w.Write(*(*items)[idx]);
    }
  } else if (items != nullptr) {
    for (const auto& item : *items) {
      w.Write(*item);
    }
  }
  w.End();
  wire::Send(net, self, to,
             {kind, request.query_id, 0, net::MakePayload(std::move(reply)),
              bounded ? request.deadline : 0, bounded ? request.attempt : 0});
}

TopKCoordinator::TopKCoordinator(net::Transport* net, net::PeerId self,
                                 const optimizer::CostParams& cost,
                                 CounterSink* counts, Resume resume)
    : net_(net),
      self_(self),
      cost_(cost),
      counts_(counts),
      resume_(std::move(resume)) {}

bool TopKCoordinator::MaybeStart(Plan* plan, uint32_t hops, double deadline,
                                 uint32_t attempt,
                                 std::set<std::string>* contacted) {
  if (!optimizer::use_distributed_topk()) return false;
  if (plan->root() == nullptr || plan->query_id().empty()) return false;
  // Find the consumer TopN under the display/projection wrappers.
  PlanNode* topn = plan->root().get();
  while (topn->type() == OpType::kDisplay ||
         topn->type() == OpType::kProject) {
    if (topn->children().size() != 1) return false;
    topn = topn->child(0).get();
  }
  if (topn->type() != OpType::kTopN || !topn->has_limit() ||
      topn->limit() == 0 || topn->order_field().empty() ||
      topn->children().empty()) {
    return false;
  }
  std::vector<PlanNodePtr> frontier;
  {
    algebra::NodeMarks seen;
    if (!CollectTopKFrontier(topn->child(0), &seen, &frontier)) return false;
  }
  // Classify the frontier: constants will pre-load the merge;
  // bound-stamped remote sub-plans become streamed sources; anything else
  // (an unresolved URN, an unstamped remote branch, a distinct union)
  // means this peer cannot finish the merge — route the plan normally.
  // Constants are read only once the session is sure to start: a walk
  // that merely passes through leaves its carried data unbuilt.
  const engine::TopKSpec spec{topn->order_field(), topn->ascending(),
                              topn->limit()};
  Session s;
  s.spec = spec;
  std::vector<uint64_t> cards;
  uint64_t total_card = 0;
  bool all_cards = true;
  for (size_t li = 0; li < frontier.size(); ++li) {
    const PlanNodePtr& node = frontier[li];
    if (node->IsConstant()) continue;
    const auto& topk = std::as_const(*node).annotations().topk;
    if (!topk.has_value() || topk->order_field != spec.field ||
        topk->ascending != spec.ascending || topk->k != spec.k) {
      return false;
    }
    Source src;
    src.node = node;
    src.leaf = static_cast<uint32_t>(li);
    // One server must answer the whole sub-plan: no URN, one URL host (a
    // bare URL leaf is the one-node case).
    bool single_server = true;
    algebra::ForEachNode(node.get(), [&](const PlanNode* n) {
      if (n->type() == OpType::kUrn) {
        single_server = false;
      } else if (n->type() == OpType::kUrl) {
        if (src.server.empty()) {
          src.server = n->url();
        } else if (src.server != n->url()) {
          single_server = false;
        }
      }
    });
    if (!single_server || src.server.empty()) return false;
    const auto& card = std::as_const(*node).annotations().cardinality;
    if (card.has_value()) {
      cards.push_back(*card);
      total_card += *card;
    } else {
      cards.push_back(0);
      all_cards = false;
    }
    s.sources.push_back(std::move(src));
  }
  if (s.sources.empty()) return false;
  // Every source server must be reachable right now; otherwise leave the
  // plan to normal routing and its failover machinery.
  for (const auto& src : s.sources) {
    auto pid = net_->Lookup(src.server);
    if (!pid.ok() || net_->IsFailed(*pid)) return false;
  }
  // The (key, leaf, idx) order is total, so preloading after the
  // classification keeps exactly the rows preloading during it kept.
  s.heap = std::make_unique<engine::TopKHeap>(spec.k, spec.ascending);
  engine::FieldAccessor key(spec.field);
  for (size_t li = 0; li < frontier.size(); ++li) {
    if (!frontier[li]->IsConstant()) continue;
    uint64_t idx = 0;
    for (const auto& item : frontier[li]->items()) {
      s.heap->Push(key.Eval(*item).value_or(std::string_view()),
                   static_cast<uint32_t>(li), idx++, item);
    }
  }
  // Initial windows: each source's expected contribution to the top k —
  // proportional to catalog cardinalities when every source carries one,
  // else an even split — oversampled 2x (a second round costs a full
  // RTT, so mild over-asking is the cheaper error) and capped at k (no
  // source ever needs to ship more; its k+1-th row is beaten by k
  // same-leaf rows).
  const size_t fan = s.sources.size();
  for (size_t i = 0; i < fan; ++i) {
    uint64_t b;
    if (all_cards && total_card > 0) {
      b = static_cast<uint64_t>(
          std::llround(2.0 * static_cast<double>(spec.k) *
                       static_cast<double>(cards[i]) /
                       static_cast<double>(total_card)));
    } else {
      b = (2 * spec.k + fan - 1) / fan;
    }
    s.sources[i].batch = std::clamp<uint64_t>(b, 1, spec.k);
  }
  if (contacted != nullptr) {
    // Coordinating our own query: the streamed sources hold per-slice
    // work a cancel should reach.
    for (const auto& src : s.sources) contacted->insert(src.server);
  }
  const std::string qid = plan->query_id();
  s.plan = std::move(*plan);
  s.topn = topn;
  s.hops = hops;
  s.deadline = deadline;
  s.attempt = attempt;
  s.generation = next_generation_++;
  // A retry supersedes the previous attempt's session outright; the old
  // attempt's in-flight replies die on the attempt check.
  sessions_.erase(qid);
  Session& live = sessions_.emplace(qid, std::move(s)).first->second;
  if (deadline > 0) {
    // Deadline cleanup: the TopN stays unmorphed — the Figure-2 loop's
    // deadline branch force-evaluates what it can and delivers the
    // partial, and the client's retry machinery (DESIGN.md §9) takes
    // over the incomplete plan.
    net_->ScheduleFor(self_, deadline, [this, qid, gen = live.generation]() {
      auto it = sessions_.find(qid);
      // The session finished (or was superseded) before the timer.
      if (it == sessions_.end() || it->second.generation != gen) return;
      Session ended = Take(it);
      resume_(std::move(ended.plan), ended.hops, ended.deadline,
              ended.attempt);
    });
  }
  for (size_t i = 0; i < live.sources.size(); ++i) {
    SendRequest(qid, live, i);
  }
  return true;
}

void TopKCoordinator::SendRequest(const std::string& query_id, Session& s,
                                  size_t idx) {
  Source& src = s.sources[idx];
  auto pid = net_->Lookup(src.server);
  if (!pid.ok()) return;  // stalled source: the deadline timer cleans up
  // The correlation id carries the session, the source, and the
  // continuation offset — a retried slice is idempotent because a reply
  // for any cont other than the source's current one is dropped.
  const std::string rid = query_id + "#tk" + std::to_string(src.leaf) + "." +
                          std::to_string(src.cont);
  // Refresh the annotation's continuation state and bound, then ship the
  // sub-plan document itself.
  algebra::TopKBound ann;
  ann.order_field = s.spec.field;
  ann.ascending = s.spec.ascending;
  ann.k = s.spec.k;
  ann.batch = src.batch;
  ann.cont = src.cont;
  ann.leaf = src.leaf;
  if (const engine::TopKBoundRef bound = s.heap->Bound(); bound.present) {
    ann.has_bound = true;
    ann.bound_key = bound.key;
    ann.bound_leaf = bound.leaf;
  }
  if (std::as_const(*src.node).annotations().topk != ann) {
    src.node->annotations().topk = std::move(ann);
  }
  algebra::Plan sub;
  sub.set_root(src.node);
  wire::Send(net_, self_, *pid,
             {wire::kSubqueryKind, rid, 0, PlanBody(sub, counts_),
              s.deadline, s.attempt});
}

void TopKCoordinator::HandleReply(const wire::Envelope& env) {
  const std::string& rid = env.query_id;
  const size_t marker = rid.rfind("#tk");
  const auto count_unmatched = [this]() {
    counts_->Count(&PeerCounters::unmatched_replies);
  };
  if (marker == std::string::npos) {
    count_unmatched();
    return;
  }
  const std::string qid = rid.substr(0, marker);
  const std::string_view suffix = std::string_view(rid).substr(marker + 3);
  const size_t dot = suffix.find('.');
  uint32_t leaf = 0;
  uint64_t cont = 0;
  if (dot == std::string_view::npos ||
      !mqp::ParseInteger(suffix.substr(0, dot), &leaf) ||
      !mqp::ParseInteger(suffix.substr(dot + 1), &cont)) {
    count_unmatched();
    return;
  }
  auto it = sessions_.find(qid);
  if (it == sessions_.end()) {
    // Late replies for a recently finished session are expected noise
    // (the terminating round's losers); anything else is unaccounted.
    if (!done_.Contains(qid)) count_unmatched();
    return;
  }
  Session& s = it->second;
  if (env.attempt != s.attempt) return;  // a superseded attempt's reply
  size_t idx = s.sources.size();
  for (size_t i = 0; i < s.sources.size(); ++i) {
    if (s.sources[i].leaf == leaf) {
      idx = i;
      break;
    }
  }
  if (idx == s.sources.size()) {
    count_unmatched();
    return;
  }
  const Source& src = s.sources[idx];
  // Duplicate or stale slice (a fault-plan re-delivery, or a reply that
  // raced its own retry): the continuation offset identifies the one
  // slice the source is waiting for.
  if (src.done || src.cont != cont) return;
  Merge(qid, idx, env);
}

void TopKCoordinator::Merge(const std::string& query_id, size_t idx,
                            const wire::Envelope& env) {
  const EngineTally tally(counts_);
  auto sit = sessions_.find(query_id);
  if (sit == sessions_.end()) return;
  Session& s = sit->second;
  Source& src = s.sources[idx];
  auto decoded = wire::DecodeItemBodyWithAttrs(env.body());
  if (!decoded.ok()) {
    counts_->Count(&PeerCounters::reply_decode_failures);
    return;  // the session stalls; the deadline timer (or a retry) recovers
  }
  const wire::ItemBody body = std::move(decoded).value();
  engine::FieldAccessor key(s.spec.field);
  uint64_t accepted = 0;
  uint64_t seq = 0;
  for (const auto& item : body.items) {
    const std::string_view k = key.Eval(*item).value_or(std::string_view());
    if (s.heap->WouldAccept(k, src.leaf)) ++accepted;
    s.heap->Push(k, src.leaf, src.cont + seq, item);
    ++seq;
  }
  const uint64_t shipped = body.items.size();
  src.received_rows += shipped;
  src.received_bytes += env.body().size();
  src.total = AttrU64(body.attrs, "total", src.total);
  src.cont = AttrU64(body.attrs, "cont", src.cont + shipped);
  const bool more = AttrU64(body.attrs, "more", 0) != 0;
  counts_->Count(&PeerCounters::topk_batches);
  if (!more) {
    src.done = true;
  } else if (s.heap->full()) {
    // Threshold test (the ADiT termination): the server's next eligible
    // key rides in the reply — if the heap's k-th entry already beats
    // it, nothing further from this source can win. The server never
    // sees the terminal slice, so the rows it still holds are credited
    // here (disjoint from BoundedPrefix's terminal-slice credit).
    const std::string* next = body.attrs.Find("next");
    if (next != nullptr && !s.heap->WouldAccept(*next, src.leaf)) {
      src.done = true;
      counts_->Count(&PeerCounters::topk_early_terminations);
      if (src.total > src.received_rows) {
        const uint64_t pruned = src.total - src.received_rows;
        counts_->Count(&PeerCounters::topk_rows_pruned, pruned);
      }
    }
  }
  if (!src.done) {
    // Adapt the next window. With a full heap, a catalog histogram for
    // the order field turns the bound into a direct estimate of how many
    // rows at the server can still win; without one, fall back to
    // multiplicative adaptation on the observed acceptance rate.
    const uint64_t cap = s.spec.k > 0 ? s.spec.k : 1;
    const uint64_t lo = std::min<uint64_t>(4, cap);
    uint64_t batch = src.batch;
    bool refined = false;
    if (s.heap->full() && src.total > 0) {
      const engine::TopKBoundRef bound = s.heap->Bound();
      const algebra::FieldHistogram* hist =
          std::as_const(*src.node).annotations().HistogramFor(s.spec.field);
      if (hist != nullptr) {
        char* end = nullptr;
        const double v = std::strtod(bound.key.c_str(), &end);
        if (end != bound.key.c_str() && *end == '\0') {
          double frac = s.spec.ascending
                            ? hist->FractionBelow(v)
                            : 1.0 - hist->FractionBelow(v) -
                                  hist->FractionEquals(v);
          if (frac < 0) frac = 0;
          const auto useful = static_cast<uint64_t>(
              std::llround(frac * static_cast<double>(src.total)));
          batch = useful > src.received_rows ? useful - src.received_rows
                                             : lo;
          refined = true;
        }
      }
    }
    if (!refined && shipped > 0) {
      if (accepted * 2 >= shipped) {
        batch = src.batch * 2;
      } else if (accepted * 10 < shipped) {
        batch = src.batch / 2;
      }
    }
    src.batch = std::clamp<uint64_t>(batch, lo, cap);
    SendRequest(query_id, s, idx);
    return;
  }
  for (const auto& other : s.sources) {
    if (!other.done) return;
  }
  Session ended = Take(sit);
  // Estimate what the bound kept off the wire: unshipped rows per source,
  // priced at that source's observed bytes-per-row (cost-model fallback
  // when a source shipped nothing). Benches measure real wire bytes; the
  // counter is the per-query attribution.
  for (const auto& source : ended.sources) {
    if (source.total <= source.received_rows) continue;
    const uint64_t unshipped = source.total - source.received_rows;
    const double per_row =
        source.received_rows > 0
            ? static_cast<double>(source.received_bytes) /
                  static_cast<double>(source.received_rows)
            : cost_.avg_item_bytes;
    const auto saved = static_cast<uint64_t>(
        std::llround(per_row * static_cast<double>(unshipped)));
    counts_->Count(&PeerCounters::topk_bytes_saved, saved);
  }
  // The heap holds exactly the reference TopN's answer; morphing the TopN
  // to it and re-entering the Figure-2 loop finishes the plan (remaining
  // wrappers evaluate over constants, then delivery).
  ended.topn->MorphToData(ended.heap->Finish());
  resume_(std::move(ended.plan), ended.hops, ended.deadline, ended.attempt);
}

TopKCoordinator::Session TopKCoordinator::Take(SessionMap::iterator it) {
  Session s = std::move(it->second);
  done_.Insert(it->first);
  sessions_.erase(it);
  return s;
}

void TopKCoordinator::Cancel(const std::string& query_id) {
  auto it = sessions_.find(query_id);
  if (it == sessions_.end()) return;
  Take(it);
  counts_->Count(&PeerCounters::cancelled_sessions_reaped);
}

std::vector<std::string> TopKCoordinator::CheckInvariants() const {
  std::vector<std::string> violations;
  for (const auto& [qid, s] : sessions_) {
    if (s.deadline > 0) {
      violations.push_back("top-k session " + qid +
                           " open past its deadline");
    }
  }
  return violations;
}

}  // namespace mqp::peer
