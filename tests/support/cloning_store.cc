#include "support/cloning_store.h"

#include "xml/xpath.h"

namespace mqp::dom {

namespace {

void AppendCopies(const xml::Node& collection, algebra::ItemSet* out) {
  for (const auto& c : collection.children()) {
    if (c->is_element()) out->push_back(algebra::MakeItem(*c));
  }
}

}  // namespace

void CloningStore::AddCollection(const std::string& id,
                                 const algebra::ItemSet& items) {
  xml::Node*& data = collections_[id];
  if (data == nullptr) {
    data = doc_->AddElement("data");
    data->SetAttr("id", id);
  }
  for (const algebra::Item& item : items) {
    data->AddChild(item->Clone());
  }
}

Result<algebra::ItemSet> CloningStore::Fetch(const std::string& xpath) const {
  algebra::ItemSet out;
  if (xpath.empty()) {
    for (const auto& data : doc_->children()) AppendCopies(*data, &out);
    return out;
  }
  // Collection XPaths are written relative to the store root
  // ("/data[id=245]"), so evaluate each step below <store>.
  const std::string full =
      xpath.front() == '/' ? "/store" + xpath : "/store/" + xpath;
  MQP_ASSIGN_OR_RETURN(auto xp, xml::XPath::Parse(full));
  for (const xml::Node* match : xp.Eval(*doc_)) {
    if (match->name() == "data" && match->Attr("id").has_value()) {
      AppendCopies(*match, &out);
    } else {
      out.push_back(algebra::MakeItem(*match));
    }
  }
  return out;
}

}  // namespace mqp::dom
