#include "algebra/provenance.h"
#include "common/strings.h"
#include "support/dom_plan_codec.h"

namespace mqp::dom {

using algebra::Provenance;
using algebra::ProvenanceEntry;

std::unique_ptr<xml::Node> ProvenanceToXml(const Provenance& prov) {
  auto node = xml::Node::Element("provenance");
  for (const auto& e : prov.entries()) {
    xml::Node* v = node->AddElement("visit");
    v->SetAttr("server", e.server);
    v->SetAttr("time", mqp::FormatDouble(e.time));
    v->SetAttr("action",
               std::string(algebra::ProvenanceActionName(e.action)));
    if (!e.detail.empty()) v->SetAttr("detail", e.detail);
    if (e.staleness_minutes != 0) {
      v->SetAttr("staleness", std::to_string(e.staleness_minutes));
    }
  }
  return node;
}

Result<Provenance> ProvenanceFromXml(const xml::Node& node) {
  Provenance prov;
  for (const xml::Node* v : node.Children("visit")) {
    ProvenanceEntry e;
    e.server = v->AttrOr("server", "");
    if (!mqp::ParseDouble(v->AttrOr("time", "0"), &e.time)) {
      return Status::ParseError("bad provenance time");
    }
    MQP_ASSIGN_OR_RETURN(
        e.action, algebra::ProvenanceActionFromName(v->AttrOr("action", "")));
    e.detail = v->AttrOr("detail", "");
    if (auto s = v->Attr("staleness")) {
      if (!mqp::ParseInteger(*s, &e.staleness_minutes)) {
        return Status::ParseError("bad provenance staleness");
      }
    }
    prov.Add(std::move(e));
  }
  return prov;
}

}  // namespace mqp::dom
