// The counter table: every counter the system keeps, declared once.
//
// Each line declares one counter as X(name), with its comment. The list a
// line sits in is its writer group (DESIGN.md §12), and the structs that
// carry the counters are generated from the lists:
//
//   * substrate     — written by the transports and the fault injector;
//                     net::NetStats only.
//   * peer-reported — written by a peer (or by the wire codec on its
//                     behalf) and kept twice: per peer in
//                     peer::PeerCounters and network-wide in net::NetStats.
//                     Both structs inherit these members from
//                     mqp::PeerReportedCounters, and peer::CounterSink
//                     bumps both copies in one call. The engine sub-list also
//                     generates engine::EngineStats.
//   * peer-only     — peer::PeerCounters only.
//
// Adding a counter takes one line here plus its increment sites; the
// generated Clear/MergeFrom/Add pick it up. Every counter is a plain
// uint64_t: each thread writes its own shard and shards merge at
// quiescence, so no increment needs an atomic.
#pragma once

#include <cstdint>

// --- substrate ------------------------------------------------------------------

#define MQP_SUBSTRATE_COUNTERS(X)                                             \
  X(messages)                   /* sent, delivered or not */                  \
  X(bytes)                      /* wire bytes of those messages */            \
  X(events_scheduled)           /* enqueued events, either scheduler */       \
  X(event_pool_hits)            /* event slots reused from the free list */   \
  X(calendar_resizes)           /* calendar-queue bucket-array resizes */     \
  X(mailbox_backpressure_waits) /* external senders blocked, full mailbox */  \
  X(mailbox_soft_overflows)     /* worker sends that bypassed the bound */    \
  X(drops_from_failed)          /* sent while the sender was down */          \
  X(drops_to_failed)            /* to a peer down at send or in transit */    \
  X(fault_drops)                /* dropped by the armed fault plan */         \
  X(fault_dups)                 /* duplicated by the fault plan */            \
  X(fault_delays)               /* delayed by the fault plan */               \
  X(tcp_send_queue_waits)       /* senders blocked, full TCP send queue */    \
  X(tcp_send_soft_overflows)    /* transport threads that bypassed it */

// --- peer-reported --------------------------------------------------------------

// Plan codec (wire/plan_codec.h), counted per encode/decode.
#define MQP_WIRE_COUNTERS(X)                                                  \
  X(plan_serializations)          /* plan bodies serialized */                \
  X(plan_parses)                  /* plan bodies parsed */                    \
  X(forwards_without_reserialize) /* cache hits: arrival buffer reused */     \
  X(dom_nodes_built)              /* xml::Nodes built while decoding plans */ \
  X(plan_decode_ns)               /* steady-clock plan decode time */

// Catalog resolution: deltas of catalog::ResolveStats per resolve pass.
#define MQP_RESOLVE_COUNTERS(X)                                               \
  X(resolve_index_probes)    /* area-index bucket probes */                   \
  X(resolve_entries_scanned) /* entries overlap-tested */                     \
  X(binding_cache_hits)      /* resolutions answered from the cache */

// Query engine: thread-local engine::EngineStats, reported as deltas.
#define MQP_ENGINE_COUNTERS(X)                                                \
  X(items_cloned)           /* whole items deep-copied */                     \
  X(field_accessor_hits)    /* keys read by compiled field accessors */       \
  X(structural_hash_probes) /* set-semantics hash-table probes */             \
  X(engine_eval_ns)         /* steady-clock time inside Evaluate */           \
  X(topk_rows_pruned)       /* top-k rows proven dead, never shipped */       \
  X(budget_aborts)          /* evaluations cut by their resource budget */

// The peer's protocols: reliability (§9), top-k (§10), message hygiene
// and overload protection (§11).
#define MQP_PROTOCOL_COUNTERS(X)                                              \
  X(query_retries)             /* retry attempts launched */                  \
  X(query_timeouts)            /* queries finished incomplete */              \
  X(failovers)                 /* dead or suspect servers routed around */    \
  X(duplicates_suppressed)     /* late results for finished queries */        \
  X(partials_delivered)        /* incomplete outcomes with items */           \
  X(topk_batches)              /* bounded reply batches merged */             \
  X(topk_bytes_saved)          /* estimated bytes the bounds avoided */       \
  X(topk_early_terminations)   /* top-k sources cut before exhaustion */      \
  X(reply_decode_failures)     /* malformed reply or subquery bodies */       \
  X(unmatched_replies)         /* replies matching no request */              \
  X(decode_rejects)            /* other malformed messages dropped */         \
  X(queries_shed)              /* plans refused by admission control */       \
  X(cancels_sent)              /* cancel fan-out messages sent */             \
  X(cancelled_sessions_reaped) /* sessions or queued plans a cancel reaped */

#define MQP_PEER_REPORTED_COUNTERS(X)                                         \
  MQP_WIRE_COUNTERS(X)                                                        \
  MQP_RESOLVE_COUNTERS(X)                                                     \
  MQP_ENGINE_COUNTERS(X)                                                      \
  MQP_PROTOCOL_COUNTERS(X)

// --- peer-only ------------------------------------------------------------------

#define MQP_PEER_ONLY_COUNTERS(X)                                             \
  X(plans_received)         /* plan messages decoded */                       \
  X(plans_forwarded)        /* unfinished plans routed onward */              \
  X(urns_bound)             /* URNs bound through the catalog */              \
  X(subplans_evaluated)     /* sub-plans reduced to data here */              \
  X(subplans_deferred)      /* evaluable sub-plans the policy deferred */     \
  X(registrations_received) /* register messages received */                  \
  X(results_delivered)      /* finished plans sent to their target */         \
  X(plans_dead_ended)       /* plans with nowhere left to route */            \
  X(hop_dom_nodes_built)    /* xml::Nodes built over mqp/result hops */

// The counters net::NetStats carries.
#define MQP_NET_COUNTERS(X)                                                   \
  MQP_SUBSTRATE_COUNTERS(X)                                                   \
  MQP_PEER_REPORTED_COUNTERS(X)

// --- generators -----------------------------------------------------------------
// MQP_COUNTER_ADD reads from a variable named `other`.

#define MQP_COUNTER_FIELD(name) uint64_t name = 0;
#define MQP_COUNTER_ZERO(name) name = 0;
#define MQP_COUNTER_ADD(name) name += other.name;

namespace mqp {

/// \brief The peer-reported counters: the members peer::PeerCounters and
/// net::NetStats share, and the sink type of the wire codec.
struct PeerReportedCounters {
  MQP_PEER_REPORTED_COUNTERS(MQP_COUNTER_FIELD)

  /// Adds every peer-reported counter of `other` into this.
  void Add(const PeerReportedCounters& other) {
    MQP_PEER_REPORTED_COUNTERS(MQP_COUNTER_ADD)
  }
};

}  // namespace mqp
