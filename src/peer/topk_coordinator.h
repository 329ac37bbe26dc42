// The distributed top-k merge coordinator (DESIGN.md §10; ADiT-style,
// Dabringer & Eder, arXiv:1606.01742): a plan whose consumer TopN sits
// over bound-stamped remote sub-plans parks here while each source
// streams score-ordered slices, and re-enters the peer's Figure-2 loop
// once the bound proves no remote row can still win. Every request is a
// bounded subquery (a bare URL source is a one-node sub-plan), and this
// file both writes and reads the bounded reply format.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/topk_heap.h"
#include "peer/common.h"
#include "wire/envelope.h"

namespace mqp::peer {

class TopKCoordinator {
 public:
  /// `cost` is the peer's cost model, read live; `resume` hands a
  /// finished or expired session's plan back to the Figure-2 loop.
  TopKCoordinator(net::Transport* net, net::PeerId self,
                  const optimizer::CostParams& cost, CounterSink* counts,
                  Resume resume);

  /// Parks the plan in a merge session when its consumer TopN sits over
  /// bound-stamped remote single-server sub-plans (plus constants), adds
  /// the source servers to `contacted` when it is non-null, and sends
  /// the first round of bounded subqueries. False = not a top-k shape,
  /// route normally.
  bool MaybeStart(algebra::Plan* plan, uint32_t hops, double deadline,
                  uint32_t attempt, std::set<std::string>* contacted);

  /// Demux for bounded subquery replies ("qid#tk<leaf>.<cont>"
  /// correlation ids); counts decode failures and unmatched replies.
  void HandleReply(const wire::Envelope& env);

  /// Reaps `query_id`'s session on a cancel (counted).
  void Cancel(const std::string& query_id);

  size_t sessions() const { return sessions_.size(); }

  /// At quiescence every session with a deadline has ended (its deadline
  /// timer has fired); returns one line per such session still open.
  std::vector<std::string> CheckInvariants() const;

 private:
  /// One remote contributor to a merge: an annotated sub-plan the
  /// coordinator streams score-ordered batches from.
  struct Source {
    algebra::PlanNodePtr node;  ///< the annotated sub-plan (in the plan DAG)
    std::string server;         ///< the peer answering for this sub-plan
    uint32_t leaf = 0;          ///< tie-break position under the TopN
    uint64_t cont = 0;          ///< continuation: rows received so far
    uint64_t batch = 0;         ///< next request's window size
    uint64_t total = 0;         ///< server-reported collection size
    uint64_t received_rows = 0;
    uint64_t received_bytes = 0;
    bool done = false;
  };

  /// An in-flight merge: the parked plan, its consumer TopN, the
  /// shared-order heap, and one Source per remote sub-plan.
  struct Session {
    algebra::Plan plan;
    algebra::PlanNode* topn = nullptr;  ///< stable across Plan moves
    engine::TopKSpec spec;
    std::unique_ptr<engine::TopKHeap> heap;
    std::vector<Source> sources;
    uint32_t hops = 0;
    double deadline = 0;   ///< absolute; 0 = none
    uint32_t attempt = 0;  ///< reliability attempt the session serves
    uint64_t generation = 0;  ///< guards the deadline cleanup timer
  };
  using SessionMap = std::map<std::string, Session>;

  /// Sends the next bounded subquery for `s.sources[idx]`, carrying the
  /// heap's current k-th bound and the adapted batch size.
  void SendRequest(const std::string& query_id, Session& s, size_t idx);
  /// Merges one decoded batch into the session's heap; tightens the
  /// bound, terminates or re-requests the source, and when every source
  /// is done morphs the TopN to the heap's result and resumes the plan.
  void Merge(const std::string& query_id, size_t idx,
             const wire::Envelope& env);
  /// Ends a session: out of the table, into the done ring.
  Session Take(SessionMap::iterator it);

  net::Transport* net_;
  net::PeerId self_;
  const optimizer::CostParams& cost_;
  CounterSink* counts_;
  Resume resume_;
  SessionMap sessions_;  // query id → session
  /// Recently finished session ids: late in-flight replies for them are
  /// dropped silently instead of counting as unmatched.
  RecentIds done_{128};
  uint64_t next_generation_ = 0;
};

/// Drops rows a bound-stamped sub-plan can never contribute before the
/// result is folded into the plan (the local-evaluation analog of the
/// server-side bounded prefix).
void TruncateForTopK(const algebra::PlanNode& node, algebra::ItemSet* items);

/// Answers a fetch or subquery `request` with `items` (none when null).
/// When the request's plan `root` carries a TopKBound annotation, ships
/// only the score-ordered slice it asks for, with the continuation
/// attributes TopKCoordinator reads, and echoes the request's deadline
/// and attempt; otherwise ships every item.
void SendItemReply(net::Transport* net, net::PeerId self, net::PeerId to,
                   const wire::Envelope& request,
                   const algebra::ItemSet* items,
                   const algebra::PlanNode* root = nullptr);

}  // namespace mqp::peer
