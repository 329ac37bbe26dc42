// XML serialization of mutant query plans — the wire format peers exchange.
//
// Layout:
//
//   <mqp>
//     <provenance>...</provenance>   (optional)
//     <original>OP</original>        (optional, §5.1)
//     <plan>OP</plan>
//   </mqp>
//
// where OP is one operator element:
//
//   <data>ITEM*</data>
//   <url href="10.1.2.3:9020" xpath="/data[id=245]"/>
//   <urn name="urn:ForSale:Portland-CDs"/>
//   <select>EXPR OP</select>
//   <project fields="title,price">OP</project>
//   <join>EXPR OP OP</join>
//   <union>OP*</union>  <or>OP*</or>  <difference>OP OP</difference>
//   <aggregate func="count" field="price" groupby="seller">OP</aggregate>
//   <topn n="10" orderby="price" order="asc">OP</topn>
//   <display target="129.95.50.105:9020">OP</display>
//
// Shared sub-DAGs serialize once with a node-id attribute; later references
// appear as <ref id="..."/>. Annotations (§5.1/§4.3) appear as card=,
// bytes=, distinct=, staleness= attributes on any operator element.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "algebra/plan.h"
#include "common/result.h"
#include "xml/node.h"

namespace mqp::algebra {

/// \brief Serializes a plan to its XML wire form. The compact form runs
/// the streaming codec (no intermediate DOM) unless the ablation knob is
/// off; `indent = true` is a debugging aid and always takes the DOM path.
/// Both paths produce byte-identical compact output.
std::string SerializePlan(const Plan& plan, bool indent = false);

/// \brief Serializes to a DOM — the reference implementation the
/// streaming encoder is equivalence-tested against (and the pretty
/// printer's input).
std::unique_ptr<xml::Node> PlanToXml(const Plan& plan);

/// \brief Parses the XML wire form back into a Plan. Runs the streaming
/// token decoder unless the ablation knob is off. It builds no xml::Node:
/// a <data> element whose item run is canonical (xml::CanonicalRunEnd)
/// becomes a PlanNode::VerbatimData leaf that builds its items on first
/// read and re-encodes as the same bytes until mutated; only a rejected
/// run decodes its items eagerly. Verbatim leaves share one copy of
/// `text`, made when the first one is found.
Result<Plan> ParsePlan(std::string_view text);

/// \brief ParsePlan over a shared buffer (the wire path): verbatim leaves
/// borrow `bytes` itself instead of copying it.
Result<Plan> ParsePlan(std::shared_ptr<const std::string> bytes);

/// \brief Parses a plan from a DOM node (<mqp> element) — the reference
/// decoder behind the ablation knob.
Result<Plan> PlanFromXml(const xml::Node& root);

/// \brief Serialized size of the plan in bytes (what the network would
/// carry); the quantity MQP optimization tries to keep small. The
/// streaming path prices via a counting token sink without materializing.
size_t PlanWireSize(const Plan& plan);

/// \brief Ablation knob (the PR 3 pattern): when off, ParsePlan /
/// SerializePlan / PlanWireSize run the DOM reference implementation
/// (xml::Parse → PlanFromXml, PlanToXml → xml::Serialize) instead of the
/// streaming codec. Defaults to on; tests and benches flip it to compare.
void set_use_streaming_plan_codec(bool on);
bool use_streaming_plan_codec();

}  // namespace mqp::algebra
