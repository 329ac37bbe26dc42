#include "engine/local_store.h"

#include <algorithm>

#include "common/strings.h"
#include "xml/xpath.h"

namespace mqp::engine {

namespace {

using algebra::Item;
using algebra::ItemSet;

/// Deep item copy, tallied: the zero-clone guarantee of the shared steady
/// path is asserted as a zero delta of this counter.
Item CloneItem(const xml::Node& n) {
  ++internal::MutableStats().items_cloned;
  return algebra::MakeItem(n);
}

}  // namespace

LocalStore::LocalStore() = default;

void LocalStore::AddCollection(const std::string& id,
                               const algebra::ItemSet& items) {
  Collection& coll = collections_[id];
  if (coll.seq == 0) coll.seq = ++next_seq_;  // fresh collection
  coll.items.insert(coll.items.end(), items.begin(), items.end());
  for (const Item& item : items) {
    if (item->is_element()) {
      if (item->name() == "id") coll.has_id_element_item = true;
    } else {
      // Kept but never emitted (readers walk element children); the DOM
      // view still carries it so "[.=text]" predicates see the document
      // the old store held.
      coll.has_non_element_item = true;
    }
  }
  ++version_;
  view_.reset();  // don't keep a stale deep-copied view alive
}

void LocalStore::ReplaceCollection(const std::string& id,
                                   const algebra::ItemSet& items) {
  RemoveCollection(id);
  AddCollection(id, items);
}

void LocalStore::RemoveCollection(const std::string& id) {
  if (collections_.erase(id) == 0) return;  // documented no-op
  ++version_;
  view_.reset();  // don't keep a stale deep-copied view alive
}

std::string LocalStore::CollectionXPath(const std::string& id) {
  const char quote = id.find('\'') == std::string::npos ? '\'' : '"';
  std::string out = "/data[@id=";
  out += quote;
  out += id;
  out += quote;
  out += ']';
  return out;
}

std::vector<std::pair<const std::string*, const LocalStore::Collection*>>
LocalStore::Ordered() const {
  std::vector<std::pair<const std::string*, const Collection*>> out;
  out.reserve(collections_.size());
  for (const auto& [id, coll] : collections_) {
    out.emplace_back(&id, &coll);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.second->seq < b.second->seq;
            });
  return out;
}

const xml::Node& LocalStore::View() const {
  if (view_ == nullptr || view_version_ != version_) {
    view_ = xml::Node::Element("store");
    for (const auto& [id, coll] : Ordered()) {
      xml::Node* data = view_->AddElement("data");
      data->SetAttr("id", *id);
      for (const Item& item : coll->items) {
        // Non-element items ride along: they are never *emitted*, but a
        // "[.=text]" predicate over <data> must see the full document.
        ++internal::MutableStats().items_cloned;
        data->AddChild(item->Clone());
      }
    }
    view_version_ = version_;
  }
  return *view_;
}

void LocalStore::AppendItems(const Collection& coll, algebra::ItemSet* out) {
  if (!coll.has_non_element_item) {
    out->insert(out->end(), coll.items.begin(), coll.items.end());
    return;
  }
  for (const Item& item : coll.items) {
    if (item->is_element()) out->push_back(item);
  }
}

bool LocalStore::FetchFast(const xml::XPath& xp,
                           algebra::ItemSet* out) const {
  if (xp.StepCount() == 0 || xp.StepIsAttr(0) || xp.StepIsDescendant(0) ||
      xp.StepName(0) != "data") {
    return false;
  }
  // Select the collections the first step names.
  std::vector<std::pair<const std::string*, const Collection*>> selected;
  if (xp.StepHasNoPredicates(0)) {
    selected = Ordered();
  } else {
    bool attr_operand = false;
    auto literal = xp.StepKeyEqLiteral(0, "id", &attr_operand);
    if (!literal) return false;  // exotic predicate: let the view answer
    double unused;
    if (mqp::ParseDouble(*literal, &unused)) {
      // Numeric-aware '=' ("0245" matches id "245"): scan for matches
      // first (unsorted), then order just those few by insertion seq —
      // not the whole store per fetch.
      for (const auto& [id, coll] : collections_) {
        if (xml::XPath::LiteralEquals(id, *literal)) {
          selected.emplace_back(&id, &coll);
        }
      }
      std::sort(selected.begin(), selected.end(),
                [](const auto& a, const auto& b) {
                  return a.second->seq < b.second->seq;
                });
    } else {
      auto exact = collections_.find(*literal);
      if (exact != collections_.end()) {
        selected.emplace_back(&exact->first, &exact->second);
      }
    }
    if (!attr_operand) {
      // Legacy operand form "[id=...]": an element item named "id" would
      // shadow the id attribute under the old document semantics — and
      // could *select* a collection the attribute match missed, so every
      // collection disqualifies the fast path, not just the selected.
      for (const auto& [id, coll] : collections_) {
        if (coll.has_id_element_item) return false;
      }
    }
  }
  if (xp.StepCount() == 1) {
    for (const auto& [id, coll] : selected) {
      AppendItems(*coll, out);
    }
    return true;
  }
  // Positions in the first trailing step count across a collection's
  // items, and an attribute first step tests the <data> element itself;
  // per-item evaluation can see neither. Everything deeper is relative
  // to one item in both worlds.
  if (xp.StepHasPositionPredicate(1) || xp.StepIsAttr(1)) return false;
  const xml::XPath suffix = xp.SuffixFrom(1);
  for (const auto& [id, coll] : selected) {
    for (const Item& item : coll->items) {
      if (!item->is_element()) continue;
      for (const xml::Node* m : suffix.Eval(*item)) {
        // The legacy quirk, preserved: a matched element named "data"
        // carrying an id attribute is treated as a collection and emits
        // its element children instead of itself.
        if (m->name() == "data" && m->Attr("id").has_value()) {
          for (const auto& c : m->children()) {
            if (!c->is_element()) continue;
            out->push_back(Item(item, c.get()));
          }
        } else {
          // Aliasing share: the returned item borrows the match and
          // keeps the owning item alive — still zero clones.
          out->push_back(m == item.get() ? item : Item(item, m));
        }
      }
    }
  }
  return true;
}

Result<algebra::ItemSet> LocalStore::Fetch(const std::string& url,
                                           const std::string& xpath) {
  (void)url;
  algebra::ItemSet out;
  if (xpath.empty()) {
    for (const auto& [id, coll] : Ordered()) AppendItems(*coll, &out);
    return out;
  }
  auto parsed = xml::XPath::Parse(xpath);
  if (parsed.ok() && FetchFast(*parsed, &out)) return out;
  // Every other shape evaluates against the view: the store document root
  // is <store>; collection XPaths in the paper are written relative to it
  // ("/data[id=245]"), so evaluate each step against the children of
  // <store>. Matches are deep-copied out of the view.
  const std::string full =
      xpath.front() == '/' ? "/store" + xpath : "/store/" + xpath;
  MQP_ASSIGN_OR_RETURN(auto xp, xml::XPath::Parse(full));
  for (const xml::Node* match : xp.Eval(View())) {
    if (match->name() == "data" && match->Attr("id").has_value()) {
      for (const auto& c : match->children()) {
        if (c->is_element()) out.push_back(CloneItem(*c));
      }
    } else {
      out.push_back(CloneItem(*match));
    }
  }
  return out;
}

}  // namespace mqp::engine
