#include "algebra/histogram.h"
#include "common/strings.h"
#include "support/dom_plan_codec.h"

namespace mqp::dom {

using algebra::FieldHistogram;

std::unique_ptr<xml::Node> HistogramToXml(const FieldHistogram& h) {
  auto node = xml::Node::Element("histogram");
  node->SetAttr("field", h.field);
  node->SetAttr("min", mqp::FormatDouble(h.min));
  node->SetAttr("max", mqp::FormatDouble(h.max));
  node->SetAttr("total", std::to_string(h.total));
  for (uint64_t c : h.counts) {
    node->AddElement("b")->SetAttr("c", std::to_string(c));
  }
  return node;
}

Result<FieldHistogram> HistogramFromXml(const xml::Node& node) {
  FieldHistogram h;
  h.field = node.AttrOr("field", "");
  if (h.field.empty()) {
    return Status::ParseError("<histogram> missing field attribute");
  }
  if (!mqp::ParseDouble(node.AttrOr("min", ""), &h.min) ||
      !mqp::ParseDouble(node.AttrOr("max", ""), &h.max)) {
    return Status::ParseError("<histogram> has bad min/max");
  }
  int64_t total = 0;
  if (!mqp::ParseInt64(node.AttrOr("total", ""), &total) || total < 0) {
    return Status::ParseError("<histogram> has bad total");
  }
  h.total = static_cast<uint64_t>(total);
  for (const xml::Node* b : node.Children("b")) {
    int64_t c = 0;
    if (!mqp::ParseInt64(b->AttrOr("c", ""), &c) || c < 0) {
      return Status::ParseError("<histogram> has a bad bucket");
    }
    h.counts.push_back(static_cast<uint64_t>(c));
  }
  if (h.counts.empty()) {
    return Status::ParseError("<histogram> has no buckets");
  }
  return h;
}

}  // namespace mqp::dom
