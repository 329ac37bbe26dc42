// Umbrella header: the full public API of the mqp library.
//
//   #include "mqp/mqp.h"   and link against the `mqp` CMake target.
//
// Module map:
//   common/     Status/Result error model, deterministic RNG, strings,
//               and the counter table (counters: every counter declared
//               once; NetStats, PeerCounters and EngineStats are
//               generated from it — DESIGN.md §12)
//   xml/        XML DOM (the data-item model) with structural hashing and
//               epoch-cached sizes/hashes, parser, serializer, XPath-lite,
//               and the streaming codec: pull TokenReader / emitting
//               TokenWriter (the wire hot path — no throwaway DOM) plus
//               the canonical-run recognizer that lets carried items
//               skip decoding (CanonicalRunEnd; see DESIGN.md §5)
//   ns/         multi-hierarchic namespaces: categories (interned to dense
//               PathIds with Euler-tour intervals), interest areas, URNs
//   algebra/    mutant query plans: operators, expressions, XML wire format
//               (data leaves decoded from the wire keep their items as
//               verbatim bytes, built on first read and re-sent
//               unchanged; a bag union over them folds as bytes —
//               DESIGN.md §5), and the allocation-free, nesting-safe
//               plan DAG walks (walk: NodeMarks, ForEachNode)
//   engine/     the zero-copy query engine (DESIGN.md §6): physical
//               operators over shared immutable items, compiled
//               FieldAccessors, StructuralHash set semantics, the keyed
//               shared-item LocalStore, and the shared top-k machinery
//               (topk_heap: the (key, leaf, idx) total order, bound
//               refs, score-ordered prefix slices — DESIGN.md §10)
//   optimizer/  evaluable-sub-plan detection, cost model, rewrites
//               (including the top-k bound pushdown), policy
//   catalog/    distributed catalogs indexed for sublinear resolution
//               (AreaIndex + binding cache), intensional statements,
//               versioned entries + tombstones + CatalogDelta (dynamic
//               maintenance)
//   net/        discrete-event network simulator (shared-payload
//               messages) sized for million-peer populations (DESIGN.md
//               §7): calendar-queue scheduler (calendar_queue) over a
//               slab/free-list event pool (event_pool), interned message
//               kinds with flat per-kind counters (kind_table), message
//               model split out in message.h; FaultInjector, a seeded
//               deterministic fault-plan decorator over any Transport
//               (content-hashed drop/dup/delay fates, scheduled
//               crash/restart, link flaps — DESIGN.md §9)
//   wire/       framed messaging: envelopes, cached plan serialization,
//               streaming body codecs (plan_codec, body_codec)
//   runtime/    real execution backends behind the net::Transport
//               interface (DESIGN.md §8): ThreadedRuntime (per-peer
//               bounded mailboxes, thread-pool dispatch, barrier-stepped
//               virtual time, sharded stats) and the loopback
//               TcpTransport (length-prefixed frames, wall-clock time)
//   sync/       gossip/anti-entropy catalog maintenance (digests, deltas,
//               TTL expiry) on top of the wire layer
//   peer/       the peer (peer.h): roles, registration, the Figure-2 MQP
//               loop, message dispatch and the fetch, subquery and
//               category services; three peer-confined components it
//               owns: QueryClient (query_client.h, DESIGN.md §9:
//               deadlines, retries with seeded backoff, suspicion-list
//               failover, partial-result degradation, cancel fan-out),
//               TopKCoordinator (topk_coordinator.h, §10: bounded
//               score-ordered subquery batches, threshold early
//               termination, adaptive windows) and Admission
//               (admission.h, §11: priority-aware RED shedding over a
//               virtual service-time model, per-query evaluation
//               budgets, the cancelled-query ring); common.h holds what
//               they share (options, outcome, counters)
//   baseline/   Napster / Gnutella / coordinator baselines
//   workload/   garage-sale, CD-market, gene-expression generators, the
//               churn and flash-crowd scenario drivers, and topology
//               builders (garage-sale tree, super-peer hierarchies)
//               plus the §2 coordinator comparison (C2) and the §4.2
//               replica-statement scenario (C3)
//
// Outside the library, tests/support/ (the mqp_test_support target) keeps
// the implementations the library replaced as references that tests and
// benches compare against: the DOM plan codec and the cloning store. The
// binary-heap scheduler and the linear area scan live beside the checks
// that use them (tests/substrate_test.cc, tests/catalog_index_test.cc,
// benches c11 and c8).
//
// Layering is strictly:
//   common/xml/ns → algebra → net → wire → runtime → sync →
//   peer/baseline → workload
// (runtime/ implements the net/ Transport interface; peers depend only
// on the interface, so any backend slots in.)
#pragma once

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "algebra/plan_xml.h"
#include "algebra/provenance.h"
#include "algebra/walk.h"
#include "baseline/central_index.h"
#include "baseline/coordinator.h"
#include "baseline/flooding.h"
#include "catalog/area_index.h"
#include "catalog/catalog.h"
#include "catalog/intension.h"
#include "catalog/versioned.h"
#include "common/counters.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "engine/field_accessor.h"
#include "engine/local_store.h"
#include "engine/operator.h"
#include "engine/topk_heap.h"
#include "net/calendar_queue.h"
#include "net/event_pool.h"
#include "net/fault_injector.h"
#include "net/kind_table.h"
#include "net/message.h"
#include "net/simulator.h"
#include "ns/category_path.h"
#include "ns/hierarchy.h"
#include "ns/interest.h"
#include "ns/path_interner.h"
#include "ns/urn.h"
#include "optimizer/cost.h"
#include "optimizer/evaluable.h"
#include "optimizer/policy.h"
#include "optimizer/rewrites.h"
#include "peer/peer.h"
#include "peer/verification.h"
#include "query/parser.h"
#include "runtime/tcp_transport.h"
#include "runtime/threaded_runtime.h"
#include "sync/gossip.h"
#include "wire/body_codec.h"
#include "wire/envelope.h"
#include "wire/plan_codec.h"
#include "workload/cd_market.h"
#include "workload/churn.h"
#include "workload/coordinator_race.h"
#include "workload/flash_crowd.h"
#include "workload/garage_sale.h"
#include "workload/gene_expression.h"
#include "workload/network_builder.h"
#include "workload/replicas.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"
#include "xml/writer.h"
#include "xml/xpath.h"
