// The cloning store: the reference engine::LocalStore's fetch is compared
// against (tests/engine_perf_test.cc) and priced against
// (bench_c10_engine).
//
// It keeps a base server's collections as one owned DOM document,
//
//   <store>
//     <data id="245">ITEM*</data>
//     ...
//   </store>
//
// evaluates a fetch's XPath against it and deep-copies every match out.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "algebra/plan.h"
#include "common/result.h"
#include "xml/node.h"

namespace mqp::dom {

class CloningStore {
 public:
  /// Appends copies of `items` to collection `id`; a new id opens its
  /// <data> element after every earlier one. Non-element items stay in
  /// the document (a "[.=text]" predicate sees them) but are never
  /// returned.
  void AddCollection(const std::string& id, const algebra::ItemSet& items);

  /// LocalStore::Fetch's answer for `xpath`: every item of every
  /// collection when empty; otherwise the XPath is evaluated below
  /// <store>, and a matched collection (<data> carrying an id) yields its
  /// element children. Each returned item is a deep copy.
  Result<algebra::ItemSet> Fetch(const std::string& xpath) const;

 private:
  std::unique_ptr<xml::Node> doc_ = xml::Node::Element("store");
  std::unordered_map<std::string, xml::Node*> collections_;  // into doc_
};

}  // namespace mqp::dom
