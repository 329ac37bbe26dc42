// The "Gnutella" baseline (paper §1): no indices; queries are broadcast to
// a node's neighbors, which re-broadcast up to a fixed number of steps
// (the *horizon*). Matching peers reply straight to the querying node.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/rng.h"
#include "net/simulator.h"
#include "ns/interest.h"

namespace mqp::baseline {

/// \brief One peer in the unstructured overlay.
class FloodingPeer : public net::PeerNode {
 public:
  FloodingPeer(net::Transport* sim, ns::InterestArea area,
               algebra::ItemSet items);

  net::PeerId id() const { return id_; }
  const ns::InterestArea& area() const { return area_; }

  void AddNeighbor(net::PeerId neighbor);

  /// Starts a flood from this node: asks all neighbors for items in
  /// `area`, up to `horizon` hops. Replies go to `reply_to`.
  void StartFlood(const std::string& flood_id, const ns::InterestArea& area,
                  int horizon, net::PeerId reply_to);

  void HandleMessage(const net::Message& msg) override;

 protected:
  net::Transport* sim_;
  net::PeerId id_;

 private:
  /// Re-broadcasts a flood body. The flood id and remaining horizon ride
  /// in the wire header; `body` (area + reply-to) is shared, never copied
  /// or re-serialized while it fans out.
  void Forward(const std::string& flood_id, const net::Payload& body,
               int horizon, net::PeerId except);

  ns::InterestArea area_;
  algebra::ItemSet items_;
  std::vector<net::PeerId> neighbors_;
  std::set<std::string> seen_;  // flood ids already processed
};

/// \brief The querying node: floods, then collects hits.
class FloodingClient : public FloodingPeer {
 public:
  explicit FloodingClient(net::Transport* sim);

  /// Issues a flood query. Collect results with CollectedItems() after the
  /// simulator drains.
  void Query(const ns::InterestArea& area, int horizon);

  const algebra::ItemSet& CollectedItems() const { return collected_; }
  size_t hits_received() const { return hits_; }

  void HandleMessage(const net::Message& msg) override;

 private:
  algebra::ItemSet collected_;
  size_t hits_ = 0;
  uint64_t next_flood_ = 0;
};

/// \brief Wires peers into a random connected overlay with average degree
/// `degree` (a ring for connectivity plus random chords).
void BuildRandomOverlay(const std::vector<FloodingPeer*>& peers,
                        size_t degree, Rng* rng);

}  // namespace mqp::baseline
