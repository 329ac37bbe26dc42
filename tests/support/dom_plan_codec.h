// The DOM plan codec: the reference the streaming codec in
// algebra/plan_xml.h is compared against.
//
// Decoding parses the whole document into an xml::Node tree (xml::Parse)
// and walks it into PlanNodes (PlanFromXml); encoding builds the tree
// (PlanToXml) and serializes it (xml::Serialize). Every <data> item is
// decoded eagerly. The library carries none of this: tests
// (tests/codec_test.cc, tests/topk_test.cc) check that both codecs agree
// byte for byte and status for status, and bench_c9_codec prices the
// streaming decoder against this one. Its integer-attribute and top-k
// helpers are its own copies, so the parity tests compare two
// independent implementations.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "algebra/expr.h"
#include "algebra/histogram.h"
#include "algebra/plan.h"
#include "algebra/provenance.h"
#include "common/result.h"
#include "xml/node.h"

namespace mqp::dom {

/// \brief Builds the plan's <mqp> DOM and serializes it: the compact
/// wire form.
std::string SerializePlan(const algebra::Plan& plan);

/// \brief xml::Parse, then walks the <mqp> DOM into a Plan.
Result<algebra::Plan> ParsePlan(std::string_view text);

/// \brief xml::SerializedSize of the plan's <mqp> DOM.
size_t PlanWireSize(const algebra::Plan& plan);

// The DOM twins of the plan's parts, over their public accessors.

std::unique_ptr<xml::Node> ExprToXml(const algebra::Expr& expr);
Result<algebra::ExprPtr> ExprFromXml(const xml::Node& node);

std::unique_ptr<xml::Node> ProvenanceToXml(const algebra::Provenance& prov);
Result<algebra::Provenance> ProvenanceFromXml(const xml::Node& node);

std::unique_ptr<xml::Node> HistogramToXml(const algebra::FieldHistogram& h);
Result<algebra::FieldHistogram> HistogramFromXml(const xml::Node& node);

}  // namespace mqp::dom
