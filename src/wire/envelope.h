// Wire layer: framed peer-to-peer messaging on top of net::Transport.
//
// An Envelope is what peers logically exchange: a routing kind, the query
// (or request) id the message belongs to, a hop counter, and an immutable
// shared payload. The first three travel in a compact textual header
// ("w1|kind|query-id|hops\n") prepended on the wire, so receivers read
// routing metadata without parsing the XML body, and intermediate hops
// update hop counts without touching the payload at all. The payload is a
// net::Payload (shared_ptr<const string>): enqueueing, delivering and
// fanning a message out to many destinations never copies the body.
//
// Reliability metadata (PR 8, DESIGN.md §9) travels in an extended "w2"
// header — "w2|kind|query-id|hops|deadline-ms|attempt\n" — emitted only
// when a deadline or retry attempt is set, so fault-free traffic keeps
// the exact w1 bytes it always had. The deadline is an absolute
// transport-clock time in integral milliseconds (fixed point keeps the
// header canonical: encode∘decode is the identity); the attempt counter
// makes each retry a *different* byte string, which matters because
// net::FaultInjector decides fates by content hash.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "net/transport.h"

namespace mqp::wire {

// Message kinds used across peer and baselines. (Formerly defined in
// peer/peer.h; the wire layer owns the vocabulary now.)
inline constexpr char kMqpKind[] = "mqp";
inline constexpr char kResultKind[] = "result";
inline constexpr char kRegisterKind[] = "register";
inline constexpr char kCategoryQueryKind[] = "cat-query";
inline constexpr char kCategoryReplyKind[] = "cat-reply";
inline constexpr char kFetchKind[] = "fetch";
inline constexpr char kFetchReplyKind[] = "fetch-reply";
inline constexpr char kSubqueryKind[] = "subquery";
inline constexpr char kSubqueryReplyKind[] = "subquery-reply";
inline constexpr char kLookupKind[] = "lookup";
inline constexpr char kLookupReplyKind[] = "lookup-reply";
inline constexpr char kFloodKind[] = "flood";
inline constexpr char kFloodHitKind[] = "flood-hit";
// Catalog maintenance (sync/gossip.h): version-vector digests and the
// record deltas they pull.
inline constexpr char kSyncDigestKind[] = "sync-digest";
inline constexpr char kSyncDeltaKind[] = "sync-delta";
// Cooperative cancellation (DESIGN.md §11): fanned out by the client once
// a query completes, times out, or is shed, so remote peers reap pending
// work (open top-k merge sessions, queued plans) instead of running it to
// natural death. Body is empty; the query id is the whole message.
inline constexpr char kCancelKind[] = "cancel";

/// \brief One wire-layer message: routing metadata + shared body.
struct Envelope {
  std::string kind;      ///< routing tag; must not contain '|' or '\n'
  /// Query/request correlation id ("" = none). May contain '|' (peer
  /// names feed into it); the decoder delimits it by the last '|'.
  std::string query_id;
  /// Hop budget or hop count, interpretation per kind: MQPs count hops
  /// *up* from 0; floods count the remaining horizon *down*.
  uint32_t hops = 0;
  net::Payload payload;  ///< immutable shared body (null = empty)
  /// Absolute deadline on the transport clock, in seconds (0 = none).
  /// Carried on the wire in integral milliseconds; forwarding peers stop
  /// routing and deliver what they have once now() passes it.
  double deadline = 0;
  /// Client retry attempt this message belongs to (0 = first try).
  uint32_t attempt = 0;

  /// The body ("" when payload is null).
  const std::string& body() const {
    static const std::string kEmpty;
    return payload ? *payload : kEmpty;
  }

  /// The compact framing header, including its trailing delimiter.
  std::string EncodeHeader() const;

  /// Frames the envelope into a simulator message. The payload pointer is
  /// shared, not copied.
  net::Message ToMessage(net::PeerId from, net::PeerId to) const;
};

/// \brief Recovers the envelope from a delivered message. Raw messages
/// (no wire header) decode with the message's kind, an empty query id and
/// zero hops, so legacy senders and test probes remain deliverable.
/// Errors only on a present-but-malformed header.
Result<Envelope> DecodeEnvelope(const net::Message& msg);

/// \brief Frames and sends: the one call sites use instead of
/// Transport::Send. Size accounting (header + body) stays centralized in
/// each transport's Send.
void Send(net::Transport* net, net::PeerId from, net::PeerId to,
          Envelope env);

}  // namespace mqp::wire
