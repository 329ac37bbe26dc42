#include "baseline/flooding.h"

#include "common/strings.h"
#include "wire/body_codec.h"
#include "wire/envelope.h"
#include "workload/garage_sale.h"
#include "xml/token_writer.h"

namespace mqp::baseline {

FloodingPeer::FloodingPeer(net::Transport* sim, ns::InterestArea area,
                           algebra::ItemSet items)
    : sim_(sim), area_(std::move(area)), items_(std::move(items)) {
  id_ = sim_->Register(this);
}

void FloodingPeer::AddNeighbor(net::PeerId neighbor) {
  if (neighbor == id_) return;
  for (net::PeerId n : neighbors_) {
    if (n == neighbor) return;
  }
  neighbors_.push_back(neighbor);
}

void FloodingPeer::StartFlood(const std::string& flood_id,
                              const ns::InterestArea& area, int horizon,
                              net::PeerId reply_to) {
  seen_.insert(flood_id);
  // The body is immutable for the flood's whole lifetime: id and horizon
  // travel in the wire header, so every re-broadcast shares this buffer.
  std::string body;
  xml::TokenWriter w(&body);
  w.Start("flood");
  w.Attr("area", area.ToString());
  w.Attr("reply-to", reply_to);
  w.End();
  Forward(flood_id, net::MakePayload(std::move(body)), horizon, net::kNoPeer);
}

void FloodingPeer::Forward(const std::string& flood_id,
                           const net::Payload& body, int horizon,
                           net::PeerId except) {
  if (horizon <= 0) return;
  for (net::PeerId n : neighbors_) {
    if (n == except) continue;
    wire::Send(sim_, id_, n,
               {wire::kFloodKind, flood_id,
                static_cast<uint32_t>(horizon), body});
  }
}

void FloodingPeer::HandleMessage(const net::Message& msg) {
  auto decoded = wire::DecodeEnvelope(msg);
  if (!decoded.ok()) return;
  const wire::Envelope env = std::move(decoded).value();
  if (env.kind != wire::kFloodKind) return;
  const std::string& flood_id = env.query_id;
  if (!seen_.insert(flood_id).second) return;  // duplicate: drop
  xml::AttrList attrs;
  if (!wire::DecodeAttrBody(env.body(), &attrs).ok()) return;
  auto area = ns::InterestArea::Parse(attrs.Get("area"));
  if (!area.ok()) return;
  int64_t reply_to = 0;
  (void)mqp::ParseInt64(attrs.Get("reply-to", "-1"), &reply_to);

  // Local match: send items that fall inside the queried area.
  if (area_.Overlaps(*area) && reply_to >= 0) {
    std::string hit;
    xml::TokenWriter w(&hit);
    w.Start("flood-hit");
    size_t matched = 0;
    for (const auto& item : items_) {
      if (workload::GarageSaleGenerator::ItemInArea(*item, *area)) {
        w.Write(*item);
        ++matched;
      }
    }
    w.End();
    if (matched > 0) {
      wire::Send(sim_, id_, static_cast<net::PeerId>(reply_to),
                 {wire::kFloodHitKind, flood_id, 0,
                  net::MakePayload(std::move(hit))});
    }
  }
  // Decrementing the horizon touches only the header; the body is
  // forwarded as the very buffer it arrived in.
  Forward(flood_id, env.payload, static_cast<int>(env.hops) - 1, msg.from);
}

FloodingClient::FloodingClient(net::Transport* sim)
    : FloodingPeer(sim, ns::InterestArea(), {}) {}

void FloodingClient::Query(const ns::InterestArea& area, int horizon) {
  std::string flood_id = "f";
  flood_id += std::to_string(id());
  flood_id += '-';
  flood_id += std::to_string(next_flood_++);
  StartFlood(flood_id, area, horizon, id());
}

void FloodingClient::HandleMessage(const net::Message& msg) {
  if (msg.kind == wire::kFloodHitKind) {
    auto items = wire::DecodeItemBody(msg.body());
    if (!items.ok()) return;
    ++hits_;
    for (auto& item : *items) {
      collected_.push_back(std::move(item));
    }
    return;
  }
  FloodingPeer::HandleMessage(msg);
}

void BuildRandomOverlay(const std::vector<FloodingPeer*>& peers,
                        size_t degree, Rng* rng) {
  const size_t n = peers.size();
  if (n < 2) return;
  // Ring for connectivity.
  for (size_t i = 0; i < n; ++i) {
    peers[i]->AddNeighbor(peers[(i + 1) % n]->id());
    peers[(i + 1) % n]->AddNeighbor(peers[i]->id());
  }
  // Random chords until the average degree target is met.
  const size_t target_edges = n * degree / 2;
  size_t edges = n;
  size_t attempts = 0;
  while (edges < target_edges && attempts < 20 * target_edges) {
    ++attempts;
    const size_t a = rng->NextBelow(n);
    const size_t b = rng->NextBelow(n);
    if (a == b) continue;
    peers[a]->AddNeighbor(peers[b]->id());
    peers[b]->AddNeighbor(peers[a]->id());
    ++edges;
  }
}

}  // namespace mqp::baseline
