#include "baseline/coordinator.h"

#include "engine/operator.h"
#include "ns/urn.h"
#include "peer/peer.h"
#include "wire/body_codec.h"
#include "wire/envelope.h"
#include "wire/plan_codec.h"
#include "xml/token_writer.h"

namespace mqp::baseline {

using algebra::OpType;
using algebra::PlanNode;
using algebra::PlanNodePtr;

Coordinator::Coordinator(net::Transport* sim, Mode mode,
                         double timeout_seconds)
    : sim_(sim), mode_(mode), timeout_seconds_(timeout_seconds) {
  id_ = sim_->Register(this);
}

void Coordinator::AddCatalogEntry(const ns::InterestArea& area,
                                  const std::string& server,
                                  const std::string& xpath) {
  entries_.push_back({area, server, xpath});
}

namespace {

// Finds the first URN leaf and, if its direct parent is a select, the
// predicate guarding it.
struct UrnSite {
  PlanNode* urn = nullptr;
  algebra::ExprPtr predicate;
};

void FindUrnSite(PlanNode* node, UrnSite* site) {
  if (site->urn != nullptr) return;
  if (node->type() == OpType::kSelect && !node->children().empty() &&
      node->child(0)->type() == OpType::kUrn) {
    site->urn = node->child(0).get();
    site->predicate = node->expr();
    return;
  }
  if (node->type() == OpType::kUrn) {
    site->urn = node;
    return;
  }
  for (const auto& c : node->children()) {
    FindUrnSite(c.get(), site);
    if (site->urn != nullptr) return;
  }
}

}  // namespace

void Coordinator::Run(algebra::Plan plan, Callback cb) {
  plan_ = std::move(plan);
  callback_ = std::move(cb);
  outcome_ = Outcome{};
  outcome_.started_at = sim_->now();
  gathered_.clear();
  outstanding_ = 0;
  req_ = "co" + std::to_string(next_req_++);

  UrnSite site;
  if (plan_.root() != nullptr) FindUrnSite(plan_.root().get(), &site);
  ns::InterestArea area;
  if (site.urn != nullptr) {
    auto urn = ns::Urn::Parse(site.urn->urn());
    if (urn.ok() && urn->IsInterestArea()) {
      auto a = urn->ToInterestArea();
      if (a.ok()) area = *a;
    }
  }

  // Dispatch one sub-query per matching source, in parallel.
  for (const auto& e : entries_) {
    if (!area.empty() && !e.area.Overlaps(area)) continue;
    auto pid = sim_->Lookup(e.server);
    if (!pid.ok()) continue;
    ++outcome_.sources_contacted;
    ++outstanding_;
    if (mode_ == Mode::kShipAll) {
      std::string body;
      xml::TokenWriter w(&body);
      w.Start("fetch");
      w.Attr("xpath", e.xpath);
      w.End();
      wire::Send(sim_, id_, *pid,
                 {wire::kFetchKind, req_, 0,
                  net::MakePayload(std::move(body))});
    } else {
      // Push the selection to the source. The body is the sub-plan's
      // <mqp> document itself — the old <subquery> wrapper carried
      // nothing (correlation rides in the envelope header).
      PlanNodePtr sub = PlanNode::Url(e.server, e.xpath);
      if (site.predicate != nullptr) {
        sub = PlanNode::Select(site.predicate, std::move(sub));
      }
      algebra::Plan subplan(std::move(sub));
      wire::Send(sim_, id_, *pid,
                 {wire::kSubqueryKind, req_, 0,
                  wire::SerializePlanShared(subplan, &sim_->stats()).bytes});
    }
  }
  if (outstanding_ == 0) {
    Finish();
    return;
  }
  // Failure handling: a timeout bounds the wait for dead sources.
  const std::string this_req = req_;
  sim_->ScheduleFor(id_, sim_->now() + timeout_seconds_, [this, this_req]() {
    if (callback_ && req_ == this_req && outstanding_ > 0) {
      outcome_.sources_failed = outstanding_;
      outstanding_ = 0;
      Finish();
    }
  });
}

void Coordinator::HandleMessage(const net::Message& msg) {
  auto decoded = wire::DecodeEnvelope(msg);
  if (!decoded.ok()) return;
  const wire::Envelope env = std::move(decoded).value();
  if (env.kind != wire::kFetchReplyKind &&
      env.kind != wire::kSubqueryReplyKind) {
    return;
  }
  // Stale replies (from a previous Run) are rejected on the header alone.
  if (env.query_id != req_) return;
  if (outstanding_ == 0) return;  // already timed out
  auto items = wire::DecodeItemBody(env.body());
  if (!items.ok()) return;
  for (auto& item : *items) {
    gathered_.push_back(std::move(item));
  }
  --outstanding_;
  if (outstanding_ == 0) Finish();
}

void Coordinator::Finish() {
  if (!callback_) return;
  if (plan_.root() != nullptr) {
    // Bind every URN leaf to the gathered data, then run the remainder of
    // the plan here at the coordinator.
    UrnSite site;
    FindUrnSite(plan_.root().get(), &site);
    if (site.urn != nullptr) site.urn->MorphToData(gathered_);
    auto items = engine::Evaluate(*plan_.root(), nullptr);
    if (items.ok()) {
      outcome_.items = std::move(items).value();
      outcome_.complete = outcome_.sources_failed == 0;
    }
  }
  outcome_.finished_at = sim_->now();
  Callback cb = std::move(callback_);
  callback_ = nullptr;
  cb(outcome_);
}

}  // namespace mqp::baseline
