#include "algebra/provenance.h"

#include "common/strings.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"

namespace mqp::algebra {

std::string_view ProvenanceActionName(ProvenanceAction a) {
  switch (a) {
    case ProvenanceAction::kForwarded:
      return "forwarded";
    case ProvenanceAction::kBound:
      return "bound";
    case ProvenanceAction::kProvidedData:
      return "provided-data";
    case ProvenanceAction::kReoptimized:
      return "reoptimized";
    case ProvenanceAction::kEvaluated:
      return "evaluated";
    case ProvenanceAction::kSpoofed:
      return "spoofed";
    case ProvenanceAction::kShed:
      return "shed";
  }
  return "forwarded";
}

Result<ProvenanceAction> ProvenanceActionFromName(std::string_view name) {
  if (name == "forwarded") return ProvenanceAction::kForwarded;
  if (name == "bound") return ProvenanceAction::kBound;
  if (name == "provided-data") return ProvenanceAction::kProvidedData;
  if (name == "reoptimized") return ProvenanceAction::kReoptimized;
  if (name == "evaluated") return ProvenanceAction::kEvaluated;
  if (name == "spoofed") return ProvenanceAction::kSpoofed;
  if (name == "shed") return ProvenanceAction::kShed;
  return Status::ParseError("unknown provenance action '" +
                            std::string(name) + "'");
}

bool Provenance::Visited(std::string_view server) const {
  for (const auto& e : entries_) {
    if (e.server == server) return true;
  }
  return false;
}

size_t Provenance::HopCount() const {
  size_t hops = 0;
  for (size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].server != entries_[i - 1].server) ++hops;
  }
  return hops;
}

int Provenance::MaxStalenessMinutes() const {
  int max = 0;
  for (const auto& e : entries_) {
    if (e.staleness_minutes > max) max = e.staleness_minutes;
  }
  return max;
}

void Provenance::EmitTokens(xml::TokenWriter* w) const {
  w->Start("provenance");
  for (const auto& e : entries_) {
    w->Start("visit");
    w->Attr("server", e.server);
    w->Attr("time", mqp::FormatDouble(e.time));
    w->Attr("action", ProvenanceActionName(e.action));
    if (!e.detail.empty()) w->Attr("detail", e.detail);
    if (e.staleness_minutes != 0) {
      w->Attr("staleness", e.staleness_minutes);
    }
    w->End();
  }
  w->End();
}

Result<Provenance> Provenance::FromTokens(xml::TokenReader* r) {
  Provenance prov;
  xml::AttrList root_attrs;
  MQP_ASSIGN_OR_RETURN(xml::Token t, r->ReadAttrs(&root_attrs));
  xml::AttrList attrs;  // reused across visits
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      if (t.name == "visit") {
        MQP_ASSIGN_OR_RETURN(xml::Token vt, r->ReadAttrs(&attrs));
        ProvenanceEntry e;
        e.server = attrs.Get("server");
        if (!mqp::ParseDouble(attrs.Get("time", "0"), &e.time)) {
          return Status::ParseError("bad provenance time");
        }
        MQP_ASSIGN_OR_RETURN(
            e.action, ProvenanceActionFromName(attrs.Get("action")));
        e.detail = attrs.Get("detail");
        if (const std::string* s = attrs.Find("staleness")) {
          if (!mqp::ParseInteger(*s, &e.staleness_minutes)) {
            return Status::ParseError("bad provenance staleness");
          }
        }
        prov.Add(std::move(e));
        if (vt.type != xml::TokenType::kEndElement) {
          MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
        }
      } else {
        MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
      }
    }
    if (!r->Advance()) return r->status();
    t = r->current();
  }
  return prov;
}

}  // namespace mqp::algebra
