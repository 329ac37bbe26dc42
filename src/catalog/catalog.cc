#include "catalog/catalog.h"

#include <algorithm>

namespace mqp::catalog {

using algebra::PlanNode;
using algebra::PlanNodePtr;

Binding Binding::WithoutServers(
    const std::function<bool(const std::string& server)>& excluded) const {
  Binding out;
  out.urn = urn;
  out.dimension_fields = dimension_fields;
  for (const BindingAlternative& alt : alternatives) {
    bool touches_excluded = false;
    for (const SourceRef& s : alt.sources) {
      if (excluded(s.server)) {
        touches_excluded = true;
        break;
      }
    }
    if (!touches_excluded) out.alternatives.push_back(alt);
  }
  return out;
}

std::string Binding::ToString() const {
  std::string out;
  for (size_t i = 0; i < alternatives.size(); ++i) {
    if (i > 0) out += " | ";
    const auto& alt = alternatives[i];
    for (size_t j = 0; j < alt.sources.size(); ++j) {
      if (j > 0) out += " + ";
      const SourceRef& s = alt.sources[j];
      out += HoldingLevelName(s.level);
      out += '[';
      out += s.portion.ToString();
      out += "]@";
      out += s.server;
      if (s.staleness_minutes != 0) {
        out += '{';
        out += std::to_string(s.staleness_minutes);
        out += '}';
      }
    }
  }
  return out;
}

algebra::ExprPtr AreaPredicate(const ns::InterestArea& area,
                               const std::vector<std::string>& fields) {
  using algebra::Expr;
  algebra::ExprPtr result;
  for (const auto& cell : area.cells()) {
    algebra::ExprPtr cell_pred;
    for (size_t d = 0; d < cell.coords().size() && d < fields.size(); ++d) {
      const ns::CategoryPath& coord = cell.coord(d);
      if (coord.IsTop()) continue;  // no constraint
      auto test = Expr::Compare(algebra::CompareOp::kHasPrefix,
                                Expr::Field(fields[d]),
                                Expr::Literal(coord.ToString()));
      cell_pred = cell_pred == nullptr
                      ? test
                      : Expr::And(std::move(cell_pred), std::move(test));
    }
    if (cell_pred == nullptr) return nullptr;  // an all-covering cell
    result = result == nullptr
                 ? cell_pred
                 : Expr::Or(std::move(result), std::move(cell_pred));
  }
  return result;
}

PlanNodePtr BindingToPlan(const Binding& binding) {
  auto source_node = [&](const SourceRef& s) -> PlanNodePtr {
    PlanNodePtr node;
    if (s.level == HoldingLevel::kBase) {
      node = PlanNode::Url(s.server, s.xpath);
      if (!binding.dimension_fields.empty()) {
        auto guard = AreaPredicate(s.portion, binding.dimension_fields);
        if (guard != nullptr) {
          auto annotated = node;
          node = PlanNode::Select(std::move(guard), std::move(annotated));
        }
      }
    } else {
      // The MQP must travel to this index/meta server for further binding:
      // keep the (narrowed) URN with a resolver hint.
      node = PlanNode::UrnRef(
          s.portion.empty() ? binding.urn
                            : ns::AreaToUrn(s.portion).ToString(),
          s.server);
    }
    if (s.staleness_minutes != 0) {
      node->annotations().staleness_minutes = s.staleness_minutes;
    }
    return node;
  };
  auto alternative_node = [&](const BindingAlternative& alt) -> PlanNodePtr {
    if (alt.sources.size() == 1) return source_node(alt.sources[0]);
    std::vector<PlanNodePtr> inputs;
    inputs.reserve(alt.sources.size());
    for (const auto& s : alt.sources) {
      inputs.push_back(source_node(s));
    }
    return PlanNode::Union(std::move(inputs), alt.distinct);
  };
  if (binding.alternatives.size() == 1) {
    return alternative_node(binding.alternatives[0]);
  }
  std::vector<PlanNodePtr> alts;
  alts.reserve(binding.alternatives.size());
  for (const auto& alt : binding.alternatives) {
    alts.push_back(alternative_node(alt));
  }
  return PlanNode::Or(std::move(alts));
}

void Catalog::AddNamedMapping(const std::string& urn,
                              const std::string& server,
                              const std::string& xpath) {
  IndexEntry e;
  e.level = HoldingLevel::kBase;
  e.server = server;
  e.xpath = xpath;
  for (const auto& existing : named_[urn]) {
    if (existing == e) return;
  }
  named_[urn].push_back(std::move(e));
}

void Catalog::AddNamedReferral(const std::string& urn,
                               const std::string& server) {
  IndexEntry e;
  e.level = HoldingLevel::kIndex;
  e.server = server;
  for (const auto& existing : named_[urn]) {
    if (existing == e) return;
  }
  named_[urn].push_back(std::move(e));
}

std::string Catalog::EntryKey(const IndexEntry& entry) {
  // Exact identity over every field; '\x1f' never appears in addresses,
  // xpaths or canonical area strings.
  std::string key(HoldingLevelName(entry.level));
  key += '\x1f';
  key += entry.area.ToString();
  key += '\x1f';
  key += entry.server;
  key += '\x1f';
  key += entry.xpath;
  key += '\x1f';
  key += std::to_string(entry.delay_minutes);
  return key;
}

void Catalog::AddEntry(IndexEntry entry) {
  // Idempotent registration: drop exact duplicates.
  std::string key = EntryKey(entry);
  if (entry_keys_.find(key) != entry_keys_.end()) return;
  uint32_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
    slots_reused_ = true;
  } else {
    id = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[id];
  slot.entry = std::move(entry);
  slot.seq = next_seq_++;
  slot.live = true;
  entry_keys_.emplace(std::move(key), id);
  by_server_[slot.entry.server].push_back(id);
  area_index_.Add(id, slot.entry.area);
  TouchMutation();
}

std::vector<uint32_t> Catalog::LiveSlotsBySeq() const {
  std::vector<uint32_t> ids;
  ids.reserve(entry_keys_.size());
  for (uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].live) ids.push_back(id);
  }
  // Only slot *reuse* breaks the id/seq correspondence; an append-only
  // (or append-and-remove) catalog is already in insertion order.
  if (slots_reused_) {
    std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
      return slots_[a].seq < slots_[b].seq;
    });
  }
  return ids;
}

std::vector<IndexEntry> Catalog::entries() const {
  std::vector<IndexEntry> out;
  out.reserve(entry_keys_.size());
  ForEachEntry([&](const IndexEntry& e) { out.push_back(e); });
  return out;
}

void Catalog::RemoveSlot(uint32_t id) {
  Slot& slot = slots_[id];
  area_index_.Remove(id, slot.entry.area);
  auto sit = by_server_.find(slot.entry.server);
  if (sit != by_server_.end()) {
    std::erase(sit->second, id);
    if (sit->second.empty()) by_server_.erase(sit);
  }
  entry_keys_.erase(EntryKey(slot.entry));
  slot.entry = IndexEntry{};
  slot.live = false;
  free_slots_.push_back(id);
  TouchMutation();
}

void Catalog::RemoveServer(const std::string& server) {
  auto sit = by_server_.find(server);
  if (sit != by_server_.end()) {
    // RemoveSlot edits the by_server_ list; work from a copy.
    const std::vector<uint32_t> ids = sit->second;
    for (uint32_t id : ids) RemoveSlot(id);
  }
  for (auto& [urn, entries] : named_) {
    std::erase_if(entries,
                  [&](const IndexEntry& e) { return e.server == server; });
  }
  // Statements referencing the departed server would keep steering
  // bindings at it (e.g. Example 1 pruning the *live* replica in favor of
  // the dead one): drop them with the entries.
  RemoveStatementsNaming(server);
}

size_t Catalog::RemoveStatementsNaming(const std::string& server) {
  const size_t before = statements_.size();
  std::erase_if(statements_, [&](const IntensionalStatement& st) {
    if (st.lhs.server == server) return true;
    for (const auto& r : st.rhs) {
      if (r.server == server) return true;
    }
    return false;
  });
  if (statements_.size() != before) TouchMutation();
  return before - statements_.size();
}

bool Catalog::RemoveEntry(const IndexEntry& entry) {
  auto it = entry_keys_.find(EntryKey(entry));
  if (it == entry_keys_.end()) return false;
  RemoveSlot(it->second);
  return true;
}

bool Catalog::RemoveNamedEntry(const std::string& urn,
                               const IndexEntry& entry) {
  auto it = named_.find(urn);
  if (it == named_.end()) return false;
  const size_t before = it->second.size();
  std::erase_if(it->second, [&](const IndexEntry& e) {
    return e.level == entry.level && e.server == entry.server &&
           e.xpath == entry.xpath;
  });
  const bool removed = it->second.size() != before;
  if (it->second.empty()) named_.erase(it);
  return removed;
}

void Catalog::AddStatement(IntensionalStatement st) {
  for (const auto& s : statements_) {
    if (s == st) return;
  }
  statements_.push_back(std::move(st));
  TouchMutation();
}

namespace {

void SortSources(std::vector<SourceRef>* sources) {
  std::sort(sources->begin(), sources->end(),
            [](const SourceRef& a, const SourceRef& b) {
              if (a.server != b.server) return a.server < b.server;
              return a.xpath < b.xpath;
            });
}

bool ContainsAlternative(const std::vector<BindingAlternative>& alts,
                         const BindingAlternative& alt) {
  return std::find(alts.begin(), alts.end(), alt) != alts.end();
}

}  // namespace

ns::InterestArea Catalog::ApproximateRequest(
    const ns::InterestArea& request) const {
  if (hierarchies_ == nullptr) return request;
  ns::InterestArea out;
  for (const auto& cell : request.cells()) {
    if (cell.coords().size() != hierarchies_->dimension_count()) {
      out.AddCell(cell);  // arity mismatch: leave untouched
      continue;
    }
    std::vector<ns::CategoryPath> coords;
    coords.reserve(cell.coords().size());
    for (size_t d = 0; d < cell.coords().size(); ++d) {
      const ns::CategoryPath& c = cell.coord(d);
      coords.push_back(hierarchies_->dimension(d).Contains(c)
                           ? c
                           : hierarchies_->dimension(d).Approximate(c));
    }
    out.AddCell(ns::InterestCell(std::move(coords)));
  }
  return out;
}

std::pair<uint64_t, uint64_t> Catalog::CacheEpoch() const {
  return {mutation_stamp_,
          hierarchies_ == nullptr ? 0 : hierarchies_->version()};
}

std::vector<uint32_t> Catalog::CandidateSlots(
    const ns::InterestArea& request) const {
  std::vector<uint32_t> ids;
  resolve_stats_.resolve_index_probes += area_index_.Candidates(request, &ids);
  // Insertion order (seq), regardless of probe order: the redundancy
  // pass's recency tie-break depends on it.
  std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].seq < slots_[b].seq;
  });
  return ids;
}

std::string Catalog::FirstXPathFor(const std::string& server,
                                   const ns::InterestArea& request) const {
  auto sit = by_server_.find(server);
  if (sit == by_server_.end()) return "";
  for (uint32_t id : sit->second) {
    const IndexEntry& e = slots_[id].entry;
    if (e.area.Overlaps(request)) return e.xpath;
  }
  return "";
}

Binding Catalog::ResolveArea(const ns::InterestArea& raw_request,
                             const std::string& urn_text) const {
  ++resolve_stats_.area_resolves;
  if (!use_binding_cache_) return ResolveAreaUncached(raw_request, urn_text);
  const auto epoch = CacheEpoch();
  if (epoch != binding_cache_epoch_) {
    binding_cache_.clear();
    binding_cache_epoch_ = epoch;
  }
  std::string key = urn_text;
  key += '\x1f';
  key += raw_request.ToString();
  auto it = binding_cache_.find(key);
  if (it != binding_cache_.end()) {
    ++resolve_stats_.binding_cache_hits;
    return it->second;
  }
  ++resolve_stats_.binding_cache_misses;
  Binding binding = ResolveAreaUncached(raw_request, urn_text);
  if (binding_cache_.size() >= kBindingCacheMax) binding_cache_.clear();
  binding_cache_.emplace(std::move(key), binding);
  return binding;
}

Binding Catalog::ResolveAreaUncached(const ns::InterestArea& raw_request,
                                     const std::string& urn_text) const {
  // §3.5: approximate unknown categories by their deepest known ancestor.
  const ns::InterestArea request = ApproximateRequest(raw_request);
  Binding binding;
  binding.urn = urn_text;
  binding.dimension_fields = dimension_fields_;

  // 1. Coverage search: every entry overlapping the request contributes a
  //    source serving the overlapping portion (§3.4). The area index
  //    narrows the walk to the entries whose Euler intervals can overlap
  //    the request's; each candidate is still exactly verified.
  const bool authoritative_for_request =
      authoritative_ && authority_interest_.Covers(request);
  const std::vector<uint32_t> candidates = CandidateSlots(request);
  resolve_stats_.resolve_entries_scanned += candidates.size();
  BindingAlternative base_alt;
  base_alt.sources.reserve(candidates.size());
  for (const uint32_t candidate_id : candidates) {
    const IndexEntry& e = slots_[candidate_id].entry;
    if (!e.area.Overlaps(request)) continue;
    if (e.level == HoldingLevel::kIndex) {
      // Self-referrals (possible once gossip mirrors a peer's own index
      // registration into its own catalog) bind nothing new: this catalog
      // *is* that index.
      if (!owner_.empty() && e.server == owner_) continue;
      // An authoritative owner never defers a covered request to a
      // *strictly coarser* index (§3.3: it knows every server in its
      // area; the coarser index knows at most as much about it).
      if (authoritative_for_request &&
          e.area.Covers(authority_interest_) &&
          !authority_interest_.Covers(e.area)) {
        continue;
      }
    }
    SourceRef s;
    s.level = e.level;
    s.server = e.server;
    s.xpath = e.xpath;
    s.portion = e.area.Intersect(request);
    s.staleness_minutes = e.delay_minutes;
    s.entry_specificity = e.area.Specificity();
    base_alt.sources.push_back(std::move(s));
  }
  if (base_alt.sources.empty()) return binding;  // nothing known here
  // (Sources stay in catalog insertion order through the redundancy pass —
  // the recency tie-break below depends on it; they are sorted afterward.)

  // Redundancy elimination within the union (§4.1: "some of the servers
  // may be wholly or partially redundant with others"). An index referral
  // resolves recursively to everything in its portion, so:
  //  * an index source covered by another index source is redundant
  //    (equal portions: keep the lexicographically first server);
  //  * a base source covered by an index source is redundant too — the
  //    referral will find it again (§3.3 authoritative assumption).
  {
    auto& srcs = base_alt.sources;
    std::vector<bool> drop(srcs.size(), false);
    for (size_t i = 0; i < srcs.size(); ++i) {
      for (size_t j = 0; j < srcs.size(); ++j) {
        if (i == j || drop[j] ||
            srcs[j].level != HoldingLevel::kIndex) {
          continue;
        }
        if (!srcs[j].portion.Covers(srcs[i].portion)) continue;
        if (srcs[i].level == HoldingLevel::kBase) {
          drop[i] = true;
          break;
        }
        const bool equal = srcs[i].portion.Covers(srcs[j].portion);
        if (!equal) {
          drop[i] = true;
          break;
        }
        // Equal portions: keep the more specific server (a state index
        // beats the top meta server), then the most recently learned one
        // (sources arrive in catalog insertion order, and fresher cache
        // entries name binders closer to the data).
        if (srcs[j].entry_specificity > srcs[i].entry_specificity ||
            (srcs[j].entry_specificity == srcs[i].entry_specificity &&
             j > i)) {
          drop[i] = true;
          break;
        }
      }
    }
    std::vector<SourceRef> kept;
    for (size_t i = 0; i < srcs.size(); ++i) {
      if (!drop[i]) kept.push_back(std::move(srcs[i]));
    }
    srcs = std::move(kept);
  }

  // Completeness gate (§4.1): binding from partial knowledge would drop
  // the uncovered remainder of the request. Only answer when the source
  // portions cover the request cellwise, or when the owner is
  // authoritative for it (partial knowledge *is* everything then, §3.3).
  {
    ns::InterestArea covered;
    for (const auto& s : base_alt.sources) {
      covered = covered.Union(s.portion);
    }
    const bool sources_cover = covered.Covers(request);
    if (!sources_cover && !authoritative_for_request) {
      return binding;  // defer to someone who knows more
    }
  }
  SortSources(&base_alt.sources);

  if (!use_statements_) {
    binding.alternatives.push_back(std::move(base_alt));
    return binding;
  }

  std::vector<BindingAlternative> alts;

  // 2. Statement-derived refinements.
  //
  // Redundancy (Example 1): lhs = rhs with both sides covering the
  // request makes the two servers interchangeable — drop one from the
  // default alternative.
  BindingAlternative pruned = base_alt;
  for (const auto& st : statements_) {
    if (st.relation != IntensionRelation::kEquals || st.rhs.size() != 1) {
      continue;
    }
    const HoldingRef& l = st.lhs;
    const HoldingRef& r = st.rhs[0];
    if (l.level != HoldingLevel::kBase || r.level != HoldingLevel::kBase) {
      continue;
    }
    if (!l.area.Covers(request) || !r.area.Covers(request)) continue;
    // Both servers hold identical data for the request: keep the one with
    // the smaller delay (ties: lexicographically smaller server name).
    const std::string& drop =
        (l.delay_minutes < r.delay_minutes ||
         (l.delay_minutes == r.delay_minutes && l.server <= r.server))
            ? r.server
            : l.server;
    std::erase_if(pruned.sources,
                  [&](const SourceRef& s) { return s.server == drop; });
  }
  bool base_alt_superseded = !pruned.sources.empty() &&
                             !(pruned == base_alt);
  if (base_alt_superseded) {
    // When equality statements proved servers redundant, the pruned union
    // *replaces* the full one — the paper's Example 1 binds to "R | S",
    // never "R ∪ S" ("it need not go to both").
    alts.push_back(pruned);
  }

  for (const auto& st : statements_) {
    // Index coverage (Example 2): index[A]@R = base[...]@S ∪ ... — when
    // the index covers the request, routing to R alone suffices; so does
    // contacting all the bases directly.
    if (st.relation == IntensionRelation::kEquals &&
        st.lhs.level == HoldingLevel::kIndex &&
        st.lhs.area.Covers(request)) {
      BindingAlternative via_index;
      SourceRef s;
      s.level = HoldingLevel::kIndex;
      s.server = st.lhs.server;
      s.portion = request;
      s.staleness_minutes = st.lhs.delay_minutes;
      via_index.sources.push_back(std::move(s));
      if (!ContainsAlternative(alts, via_index)) alts.push_back(via_index);

      BindingAlternative direct;
      for (const auto& r : st.rhs) {
        if (!r.area.Overlaps(request)) continue;
        SourceRef d;
        d.level = r.level;
        d.server = r.server;
        d.portion = r.area.Intersect(request);
        d.staleness_minutes = r.delay_minutes;
        direct.sources.push_back(std::move(d));
      }
      if (!direct.sources.empty()) {
        SortSources(&direct.sources);
        if (!ContainsAlternative(alts, direct)) alts.push_back(direct);
      }
    }
    // Containment (Example 3 / §4.3): base[A]@R ⊇ base[A]@S{d} — R alone
    // answers with staleness d; R ∪ S answers current.
    if (st.relation == IntensionRelation::kContains &&
        st.lhs.level == HoldingLevel::kBase && st.rhs.size() == 1 &&
        st.rhs[0].level == HoldingLevel::kBase &&
        st.lhs.area.Covers(request) && st.rhs[0].area.Covers(request)) {
      BindingAlternative via_replica;
      SourceRef s;
      s.level = HoldingLevel::kBase;
      s.server = st.lhs.server;
      s.portion = request;
      s.staleness_minutes =
          std::max(st.lhs.delay_minutes, st.rhs[0].delay_minutes);
      // The replica's own collections for the area, if indexed here.
      s.xpath = FirstXPathFor(st.lhs.server, request);
      via_replica.sources.push_back(std::move(s));
      if (!ContainsAlternative(alts, via_replica)) {
        alts.push_back(via_replica);
      }

      BindingAlternative both = via_replica;
      both.sources[0].staleness_minutes = 0;
      // R and S overlap on the replicated portion: set semantics.
      both.distinct = true;
      SourceRef other;
      other.level = HoldingLevel::kBase;
      other.server = st.rhs[0].server;
      other.portion = request;
      other.xpath = FirstXPathFor(st.rhs[0].server, request);
      both.sources.push_back(std::move(other));
      SortSources(&both.sources);
      if (!ContainsAlternative(alts, both)) alts.push_back(both);
      // The naive R ∪ S union claims staleness 0 for R's replicated
      // data, which the statement contradicts: drop it.
      base_alt_superseded = true;
    }
  }

  if (!base_alt_superseded && !ContainsAlternative(alts, base_alt)) {
    alts.insert(alts.begin(), base_alt);
  }
  binding.alternatives = std::move(alts);
  return binding;
}

Result<Binding> Catalog::Resolve(const std::string& urn_text) const {
  MQP_ASSIGN_OR_RETURN(auto urn, ns::Urn::Parse(urn_text));
  if (urn.IsInterestArea()) {
    MQP_ASSIGN_OR_RETURN(auto area, urn.ToInterestArea());
    return ResolveArea(area, urn_text);
  }
  Binding binding;
  binding.urn = urn_text;
  // Named URNs address whole collections; no area filtering applies.
  auto it = named_.find(urn_text);
  if (it == named_.end() || it->second.empty()) return binding;
  BindingAlternative alt;
  for (const auto& e : it->second) {
    SourceRef s;
    s.level = e.level;
    s.server = e.server;
    s.xpath = e.xpath;
    s.staleness_minutes = e.delay_minutes;
    alt.sources.push_back(std::move(s));
  }
  SortSources(&alt.sources);
  binding.alternatives.push_back(std::move(alt));
  return binding;
}

}  // namespace mqp::catalog
