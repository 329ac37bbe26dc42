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
//
// The codec streams: it encodes and decodes through xml::TokenWriter and
// xml::TokenReader without building a DOM (DESIGN.md §5). The DOM codec
// it replaced lives on as the reference in tests/support/dom_plan_codec.h,
// which tests/codec_test.cc and bench_c9_codec compare it against.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "algebra/plan.h"
#include "common/result.h"

namespace mqp::algebra {

/// \brief Serializes a plan to its compact XML wire form.
std::string SerializePlan(const Plan& plan);

/// \brief Parses the XML wire form back into a Plan. It builds no
/// xml::Node: a <data> element whose item run is canonical
/// (xml::CanonicalRunEnd) becomes a PlanNode::VerbatimData leaf that
/// builds its items on first read and re-encodes as the same bytes until
/// mutated; only a rejected run decodes its items eagerly. Verbatim
/// leaves share one copy of `text`, made when the first one is found.
Result<Plan> ParsePlan(std::string_view text);

/// \brief ParsePlan over a shared buffer (the wire path): verbatim leaves
/// borrow `bytes` itself instead of copying it.
Result<Plan> ParsePlan(std::shared_ptr<const std::string> bytes);

/// \brief Serialized size of the plan in bytes (what the network would
/// carry); the quantity MQP optimization tries to keep small. Priced via
/// a counting token sink without materializing the bytes.
size_t PlanWireSize(const Plan& plan);

}  // namespace mqp::algebra
