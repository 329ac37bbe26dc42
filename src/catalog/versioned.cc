#include "catalog/versioned.h"

#include <algorithm>
#include <climits>

#include "common/strings.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"

namespace mqp::catalog {

namespace {

std::string_view KindName(SyncEntryKind kind) {
  switch (kind) {
    case SyncEntryKind::kArea: return "area";
    case SyncEntryKind::kNamed: return "named";
    case SyncEntryKind::kPresence: return "presence";
  }
  return "area";
}

Result<SyncEntryKind> KindFromName(std::string_view name) {
  if (name == "area") return SyncEntryKind::kArea;
  if (name == "named") return SyncEntryKind::kNamed;
  if (name == "presence") return SyncEntryKind::kPresence;
  return Status::ParseError("unknown sync entry kind '" + std::string(name) +
                            "'");
}

// Gossip bodies are emitted and consumed as tokens — they never build a
// DOM. "<v o='addr' s='7' f='3'/>" is a digest entry (f omitted when it
// equals s), "<v o='addr' s='7'/>" a delta's heartbeat entry, and
// "<want o='addr' s='2'/>" a delta's fact-gap request.
void EmitEntry(xml::TokenWriter* w, std::string_view name,
               std::string_view origin, uint64_t seq, uint64_t fact_seq) {
  w->Start(name);
  w->Attr("o", origin);
  w->Attr("s", seq);
  if (fact_seq != seq) w->Attr("f", fact_seq);
  w->End();
}

// A fact's fields with its area in printed form, as Key() and the wire
// carry it; entry.entry.area is not read.
struct FactRef {
  const SyncEntry& entry;
  std::string_view area;
};

void EmitRecord(xml::TokenWriter* w, std::string_view origin, uint64_t seq,
                FactRef fact, bool tombstone, double ttl_seconds) {
  const SyncEntry& entry = fact.entry;
  w->Start("rec");
  w->Attr("o", origin);
  w->Attr("s", seq);
  w->Attr("k", KindName(entry.kind));
  if (tombstone) w->Attr("tomb", "1");
  if (ttl_seconds != 0) w->Attr("ttl", static_cast<int64_t>(ttl_seconds));
  if (entry.kind != SyncEntryKind::kPresence) {
    if (!entry.urn.empty()) w->Attr("urn", entry.urn);
    w->Attr("level", HoldingLevelName(entry.entry.level));
    w->Attr("area", fact.area);
    w->Attr("server", entry.entry.server);
    if (!entry.entry.xpath.empty()) w->Attr("xpath", entry.entry.xpath);
    if (entry.entry.delay_minutes != 0) {
      w->Attr("delay", entry.entry.delay_minutes);
    }
  }
  w->End();
}

// What a presence record asserts: nothing but its kind.
const SyncEntry& PresenceEntry() {
  static const SyncEntry presence{SyncEntryKind::kPresence, {}, {}};
  return presence;
}

// Reads an attribute value holding an integer >= 0.
bool ReadCount(std::string_view text, uint64_t* out) {
  int64_t v = 0;
  if (!mqp::ParseInt64(text, &v) || v < 0) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

// Decodes the attributes of one <rec .../> into `rec`.
Status DecodeRecord(const xml::AttrList& attrs, VersionedRecord* rec) {
  rec->version.origin.assign(attrs.GetView("o"));
  int64_t seq = 0;
  if (rec->version.origin.empty() ||
      rec->version.origin.find('|') != std::string::npos ||
      !mqp::ParseInt64(attrs.GetView("s"), &seq) || seq < 0) {
    return Status::ParseError("malformed record version");
  }
  rec->version.sequence = static_cast<uint64_t>(seq);
  MQP_ASSIGN_OR_RETURN(rec->entry.kind,
                       KindFromName(attrs.GetView("k", "area")));
  const std::string_view tomb = attrs.GetView("tomb", "0");
  if (tomb != "0" && tomb != "1") {
    return Status::ParseError("record tomb must be 0 or 1");
  }
  rec->tombstone = tomb == "1";
  int64_t ttl = 0;
  if (const std::string* v = attrs.Find("ttl");
      v != nullptr && (!mqp::ParseInt64(*v, &ttl) || ttl < 0)) {
    return Status::ParseError("record ttl must be an integer >= 0");
  }
  rec->ttl_seconds = static_cast<double>(ttl);
  if (rec->entry.kind == SyncEntryKind::kPresence) return Status::OK();
  const std::string_view urn = attrs.GetView("urn");
  const std::string_view area_text = attrs.GetView("area");
  const std::string_view server = attrs.GetView("server");
  if (urn.find('|') != urn.npos || area_text.find('|') != area_text.npos ||
      server.find('|') != server.npos) {
    return Status::ParseError("record identity field contains '|'");
  }
  rec->entry.urn.assign(urn);
  const std::string_view level = attrs.GetView("level", "base");
  if (level == "base") {
    rec->entry.entry.level = HoldingLevel::kBase;
  } else if (level == "index") {
    rec->entry.entry.level = HoldingLevel::kIndex;
  } else {
    return Status::ParseError("record level must be base or index");
  }
  auto area = ns::InterestArea::Parse(area_text);
  if (!area.ok()) return area.status();
  rec->entry.entry.area = std::move(area).value();
  rec->entry.entry.server.assign(server);
  rec->entry.entry.xpath.assign(attrs.GetView("xpath"));
  int64_t delay = 0;
  if (const std::string* v = attrs.Find("delay");
      v != nullptr &&
      (!mqp::ParseInt64(*v, &delay) || delay < INT_MIN || delay > INT_MAX)) {
    return Status::ParseError("record delay must be an int");
  }
  rec->entry.entry.delay_minutes = static_cast<int>(delay);
  if (rec->entry.entry.server.empty()) {
    return Status::ParseError("record missing server");
  }
  return Status::OK();
}

// Walks "<root><v o s f/>...<want o s/>...<rec .../>...</root>", calling
// on_v(origin, seq, fact_seq) per <v> (fact_seq = seq when f is absent)
// and, `in_delta`, on_want(origin, seq) per <want> and on_rec(attrs) per
// <rec>. Other elements are skipped.
template <typename OnVector, typename OnWant, typename OnRecord>
Status ParseGossipBody(std::string_view text, std::string_view root,
                       bool in_delta, OnVector&& on_v, OnWant&& on_want,
                       OnRecord&& on_rec) {
  xml::TokenReader r(text);
  MQP_ASSIGN_OR_RETURN(xml::Token t, r.Next());
  if (t.type != xml::TokenType::kStartElement) {
    return r.Error("expected a root element");
  }
  if (t.name != root) {
    return Status::ParseError("not a " + std::string(root) + ": <" +
                              std::string(t.name) + ">");
  }
  xml::AttrList attrs;  // ReadAttrs resets it: one list for every element
  std::string origin;   // a <v>'s o, copied: the token views do not last
  MQP_ASSIGN_OR_RETURN(t, r.ReadAttrs(&attrs));
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      const bool is_v = t.name == "v";
      const bool is_want = in_delta && t.name == "want";
      if (is_v || is_want) {
        // o, s and f in one pass over the attributes; as in an AttrList,
        // the last of a repeated attribute counts, and others are skipped.
        origin.clear();
        uint64_t seq = 0;
        uint64_t fact_seq = 0;
        bool seq_ok = false;
        bool has_f = false;
        bool f_ok = false;
        while (true) {
          if (!r.Advance()) return r.status();
          const xml::Token& a = r.current();
          if (a.type != xml::TokenType::kAttr) break;
          if (a.name == "o") {
            origin.assign(a.value);
          } else if (a.name == "s") {
            seq_ok = ReadCount(a.value, &seq);
          } else if (is_v && a.name == "f") {
            has_f = true;
            f_ok = ReadCount(a.value, &fact_seq);
          }
        }
        if (origin.empty() || !seq_ok) {
          return Status::ParseError("malformed version-vector element");
        }
        if (!has_f) {
          fact_seq = seq;
        } else if (!f_ok || fact_seq > seq) {
          return Status::ParseError(
              "version-vector f must be an integer in [0, s]");
        }
        if (is_v) {
          on_v(std::string_view(origin), seq, fact_seq);
        } else {
          on_want(std::string_view(origin), seq);
        }
        if (r.current().type != xml::TokenType::kEndElement) {
          MQP_RETURN_IF_ERROR(r.SkipToElementEnd());
        }
      } else if (in_delta && t.name == "rec") {
        MQP_ASSIGN_OR_RETURN(xml::Token first, r.ReadAttrs(&attrs));
        MQP_RETURN_IF_ERROR(on_rec(attrs));
        if (first.type != xml::TokenType::kEndElement) {
          MQP_RETURN_IF_ERROR(r.SkipToElementEnd());
        }
      } else {
        MQP_RETURN_IF_ERROR(r.SkipToElementEnd());
      }
    }
    if (!r.Advance()) return r.status();
    t = r.current();
  }
  // The DOM path rejected trailing content via Parse's one-root check.
  MQP_ASSIGN_OR_RETURN(t, r.Next());
  if (t.type != xml::TokenType::kEndOfInput) {
    return Status::ParseError("expected exactly one root element, found 2");
  }
  return Status::OK();
}

// A digest skips <want> and <rec> elements like any unknown element.
void NoWants(std::string_view, uint64_t) {}
Status NoRecords(const xml::AttrList&) { return Status::OK(); }

// Three-way compare of a + '|' against b + '|': Key() order, one field
// at a time (an origin, or a fact field before the xpath). Those hold no
// '|' — the delta decoder rejects remote records whose fields do; were
// one to, the shorter string sorts first so the order stays strict.
int CompareKeyField(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  if (const int c = a.substr(0, n).compare(b.substr(0, n)); c != 0) return c;
  if (a.size() == b.size()) return 0;
  const auto ca = static_cast<unsigned char>(a.size() > n ? a[n] : '|');
  const auto cb = static_cast<unsigned char>(b.size() > n ? b[n] : '|');
  if (ca != cb) return ca < cb ? -1 : 1;
  return a.size() < b.size() ? -1 : 1;
}

// FactKey(a) < FactKey(b), without building either key.
bool FactKeyLess(FactRef a, FactRef b) {
  int c = CompareKeyField(KindName(a.entry.kind), KindName(b.entry.kind));
  if (c == 0) c = CompareKeyField(a.entry.urn, b.entry.urn);
  if (c == 0) {
    c = CompareKeyField(HoldingLevelName(a.entry.entry.level),
                        HoldingLevelName(b.entry.entry.level));
  }
  if (c == 0) c = CompareKeyField(a.area, b.area);
  if (c == 0) c = CompareKeyField(a.entry.entry.server, b.entry.entry.server);
  if (c == 0) return a.entry.entry.xpath < b.entry.entry.xpath;
  return c < 0;
}

// Makes room for `n` more entries in a column of the address table,
// growing it by an eighth: a catalog per peer keeps an entry per origin
// ever heard of, so doubling would strand up to half of every table.
template <typename Column>
void MakeRoom(Column* column, size_t n) {
  if (column->size() + n > column->capacity()) {
    column->reserve(column->size() + n + column->size() / 8 + 16);
  }
}

// A free slot of `pool`, or a new one.
template <typename T>
uint32_t TakeSlot(std::deque<T>* pool, std::vector<uint32_t>* free) {
  if (free->empty()) {
    pool->emplace_back();
    return static_cast<uint32_t>(pool->size() - 1);
  }
  const uint32_t id = free->back();
  free->pop_back();
  return id;
}

// The identity fields of two facts match, area aside.
bool SameKeyButArea(const SyncEntry& a, const SyncEntry& b) {
  return a.kind == b.kind && a.urn == b.urn &&
         a.entry.level == b.entry.level && a.entry.server == b.entry.server &&
         a.entry.xpath == b.entry.xpath;
}

// The fact part of VersionedRecord::Key().
std::string FactKey(const SyncEntry& entry) {
  // kind|urn|level|area|server|xpath — none of the fields before xpath
  // may contain '|' for the key to be unambiguous (URNs, addresses and
  // area strings never do; the delta decoder enforces it).
  std::string key(KindName(entry.kind));
  if (entry.kind == SyncEntryKind::kPresence) return key;
  key += '|';
  key += entry.urn;
  key += '|';
  key += HoldingLevelName(entry.entry.level);
  key += '|';
  key += entry.entry.area.ToString();
  key += '|';
  key += entry.entry.server;
  key += '|';
  key += entry.entry.xpath;
  return key;
}

}  // namespace

std::string DigestToXml(const Digest& digest) {
  std::string out;
  xml::TokenWriter w(&out);
  w.Start("digest");
  for (const auto& [origin, e] : digest) {
    EmitEntry(&w, "v", origin, e.seq, e.fact_seq);
  }
  w.End();
  return out;
}

Result<Digest> DigestFromXml(const std::string& text) {
  Digest digest;
  MQP_RETURN_IF_ERROR(ParseGossipBody(
      text, "digest", /*in_delta=*/false,
      [&](std::string_view origin, uint64_t seq, uint64_t fact_seq) {
        digest[std::string(origin)] = {seq, fact_seq};
      },
      NoWants, NoRecords));
  return digest;
}

std::string VersionedRecord::Key() const {
  return version.origin + '|' + FactKey(entry);
}

std::string CatalogDelta::ToXml() const {
  std::string out;
  xml::TokenWriter w(&out);
  w.Start("delta");
  for (const auto& [origin, seq] : heartbeats) {
    EmitEntry(&w, "v", origin, seq, seq);
  }
  for (const auto& [origin, seq] : wants) {
    EmitEntry(&w, "want", origin, seq, seq);
  }
  for (const auto& rec : records) {
    const std::string area = rec.entry.entry.area.ToString();
    EmitRecord(&w, rec.version.origin, rec.version.sequence,
               {rec.entry, area}, rec.tombstone, rec.ttl_seconds);
  }
  w.End();
  return out;
}

Result<CatalogDelta> CatalogDelta::FromXml(const std::string& text) {
  CatalogDelta delta;
  MQP_RETURN_IF_ERROR(ParseGossipBody(
      text, "delta", /*in_delta=*/true,
      [&](std::string_view origin, uint64_t seq, uint64_t) {
        delta.heartbeats[std::string(origin)] = seq;
      },
      [&](std::string_view origin, uint64_t seq) {
        delta.wants[std::string(origin)] = seq;
      },
      [&](const xml::AttrList& attrs) {
        return DecodeRecord(attrs, &delta.records.emplace_back());
      }));
  return delta;
}

// --- VersionedCatalog: the address table ----------------------------------------

VersionedCatalog::VersionedCatalog(std::string self, Catalog* projection)
    : self_(std::move(self)), projection_(projection) {
  self_id_ = Intern(self_);
}

std::vector<uint32_t>::const_iterator VersionedCatalog::ByAddress(
    std::string_view address) const {
  return std::lower_bound(
      by_address_.begin(), by_address_.end(), address,
      [&](uint32_t id, std::string_view a) { return Address(id) < a; });
}

uint32_t VersionedCatalog::Find(std::string_view address) const {
  auto it = ByAddress(address);
  if (it == by_address_.end() || Address(*it) != address) return kNone;
  return *it;
}

uint32_t VersionedCatalog::FindListed(std::string_view origin,
                                      size_t* cursor) const {
  size_t at = *cursor;
  for (; at < by_address_.size(); ++at) {
    const int c = Address(by_address_[at]).compare(origin);
    if (c == 0) {
      *cursor = at + 1;
      return by_address_[at];
    }
    if (c > 0) break;
  }
  // Every address before the cursor is at or below the origin found last.
  // An origin not above the one just before it (a repeated or out-of-order
  // listing) may be among them.
  if (at == *cursor && at > 0 && origin <= Address(by_address_[at - 1])) {
    return Find(origin);
  }
  *cursor = at;
  return kNone;
}

uint32_t VersionedCatalog::Intern(std::string_view address) {
  auto it = ByAddress(address);
  if (it != by_address_.end() && Address(*it) == address) return *it;
  const size_t at = it - by_address_.begin();
  const size_t kat =
      std::lower_bound(by_key_.begin(), by_key_.end(), address,
                       [&](uint32_t id, std::string_view a) {
                         return CompareKeyField(Address(id), a) < 0;
                       }) -
      by_key_.begin();
  const auto id = static_cast<uint32_t>(slots_.size());
  MakeRoom(&names_, address.size());
  names_.insert(names_.end(), address.begin(), address.end());
  MakeRoom(&name_end_, 1);
  name_end_.push_back(static_cast<uint32_t>(names_.size()));
  MakeRoom(&slots_, 1);
  slots_.emplace_back();
  rows_.emplace_back();
  MakeRoom(&by_address_, 1);
  by_address_.insert(by_address_.begin() + at, id);
  MakeRoom(&by_key_, 1);
  by_key_.insert(by_key_.begin() + kat, id);
  return id;
}

uint32_t VersionedCatalog::FindFact(uint32_t origin,
                                    const SyncEntry& entry) const {
  std::string area;  // printed only once a fact matches on everything else
  bool printed = false;
  for (uint32_t f = rows_[origin].first_fact; f != kNone;
       f = facts_[f].next_of_origin) {
    if (!SameKeyButArea(facts_[f].entry, entry)) continue;
    if (!printed) {
      area = entry.entry.area.ToString();
      printed = true;
    }
    if (areas_[facts_[f].area].text == area) return f;
  }
  return kNone;
}

std::pair<std::vector<uint32_t>::iterator, std::vector<uint32_t>::iterator>
VersionedCatalog::AreasPrintedAs(std::string_view text) {
  auto lo = std::lower_bound(
      area_order_.begin(), area_order_.end(), text,
      [&](uint32_t id, std::string_view t) { return areas_[id].text < t; });
  auto hi = std::upper_bound(
      lo, area_order_.end(), text,
      [&](std::string_view t, uint32_t id) { return t < areas_[id].text; });
  return {lo, hi};
}

uint32_t VersionedCatalog::InternArea(const ns::InterestArea& cells) {
  std::string text = cells.ToString();
  auto parsed = ns::InterestArea::Parse(text);
  const bool canonical = parsed.ok() && *parsed == cells;
  auto [lo, hi] = AreasPrintedAs(text);
  for (auto it = lo; it != hi; ++it) {
    Area& a = areas_[*it];
    if (canonical ? a.odd == nullptr : a.odd != nullptr && *a.odd == cells) {
      ++a.refs;
      return *it;
    }
  }
  const uint32_t id = TakeSlot(&areas_, &free_areas_);
  area_order_.insert(hi, id);
  Area& a = areas_[id];
  a.text = std::move(text);
  if (!canonical) a.odd = std::make_unique<ns::InterestArea>(cells);
  a.refs = 1;
  return id;
}

void VersionedCatalog::ReleaseArea(uint32_t id) {
  Area& a = areas_[id];
  if (--a.refs > 0) return;
  auto [lo, hi] = AreasPrintedAs(a.text);
  area_order_.erase(std::find(lo, hi, id));
  a = Area{};
  free_areas_.push_back(id);
}

ns::InterestArea VersionedCatalog::CellsOf(uint32_t area) const {
  const Area& a = areas_[area];
  return a.odd != nullptr ? *a.odd : *ns::InterestArea::Parse(a.text);
}

bool VersionedCatalog::SameFact(const Fact& stored, const SyncEntry& entry,
                                const ns::InterestArea& cells) const {
  if (!SameKeyButArea(stored.entry, entry) ||
      stored.entry.entry.delay_minutes != entry.entry.delay_minutes) {
    return false;
  }
  return CellsOf(stored.area) == cells;
}

SyncEntry VersionedCatalog::EntryOf(const Fact& fact) const {
  SyncEntry entry = fact.entry;
  entry.entry.area = CellsOf(fact.area);
  return entry;
}

VersionedRecord VersionedCatalog::RecordOf(uint32_t origin,
                                           uint32_t fact) const {
  const Stamp& s = fact == kNone ? *PresenceOf(origin) : facts_[fact].stamp;
  return {{std::string(Address(origin)), s.sequence},
          fact == kNone ? PresenceEntry() : EntryOf(facts_[fact]),
          s.tombstone,
          s.ttl_seconds,
          s.stamped_at};
}

VersionVector VersionedCatalog::vector() const {
  VersionVector out;
  for (uint32_t id : by_address_) {
    if (slots_[id].in_vector) {
      out.emplace_hint(out.end(), Address(id), slots_[id].seq);
    }
  }
  return out;
}

Digest VersionedCatalog::digest() const {
  Digest out;
  for (uint32_t id : by_address_) {
    const Slot& slot = slots_[id];
    if (slot.in_vector) {
      out.emplace_hint(out.end(), Address(id),
                       VectorEntry{slot.seq, slot.fact_seq});
    }
  }
  return out;
}

std::map<std::string, VersionedRecord> VersionedCatalog::records() const {
  std::map<std::string, VersionedRecord> out;
  auto add = [&](VersionedRecord rec) {
    out.emplace(rec.Key(), std::move(rec));
  };
  for (uint32_t id = 0; id < rows_.size(); ++id) {
    for (uint32_t f = rows_[id].first_fact; f != kNone;
         f = facts_[f].next_of_origin) {
      add(RecordOf(id, f));
    }
    if (PresenceOf(id) != nullptr) add(RecordOf(id, kNone));
  }
  return out;
}

// --- storage ---------------------------------------------------------------------

void VersionedCatalog::UnmarkTombstone(Stamp* stamp) {
  const uint32_t slot = stamp->tomb_slot;
  stamp->tomb_slot = kNone;
  const uint32_t moved = tombs_.back();
  tombs_.pop_back();
  if (slot == tombs_.size()) return;
  tombs_[slot] = moved;
  facts_[moved].stamp.tomb_slot = slot;
}

void VersionedCatalog::RecomputeTtl(uint32_t id) {
  double ttl = 0;
  if (const Stamp* p = PresenceOf(id)) ttl = std::max(ttl, p->ttl_seconds);
  for (uint32_t f = rows_[id].first_fact; f != kNone;
       f = facts_[f].next_of_origin) {
    ttl = std::max(ttl, facts_[f].stamp.ttl_seconds);
  }
  slots_[id].ttl = ttl;
}

void VersionedCatalog::UpdateTtl(uint32_t origin, bool replaced,
                                 double old_ttl, double ttl) {
  const double max = slots_[origin].ttl;
  if (replaced && old_ttl >= max && ttl < max) {
    RecomputeTtl(origin);  // the replaced record may have been the maximum
  } else {
    slots_[origin].ttl = std::max(max, ttl);
  }
}

void VersionedCatalog::SetStamp(uint32_t id, bool replaced, Stamp stamp) {
  Stamp* slot = &facts_[id].stamp;
  const double old_ttl = slot->ttl_seconds;
  if (replaced && slot->tombstone) UnmarkTombstone(slot);
  *slot = stamp;
  if (stamp.tombstone) {
    slot->tomb_slot = static_cast<uint32_t>(tombs_.size());
    tombs_.push_back(id);
  }
  UpdateTtl(facts_[id].origin, replaced, old_ttl, stamp.ttl_seconds);
}

void VersionedCatalog::PutPresence(uint32_t origin, Stamp stamp) {
  uint32_t& id = rows_[origin].presence;
  const bool replaced = id != kNone;
  if (!replaced) id = TakeSlot(&presences_, &free_presences_);
  Stamp& p = presences_[id];
  const double old_ttl = p.ttl_seconds;
  stamp.tomb_slot = p.tomb_slot;  // still listed if it was
  p = stamp;
  UpdateTtl(origin, replaced, old_ttl, stamp.ttl_seconds);
  NoteStaleGoodbye(origin);
}

void VersionedCatalog::NoteStaleGoodbye(uint32_t origin) {
  const uint32_t id = rows_[origin].presence;
  if (id == kNone) return;
  Stamp& p = presences_[id];
  if (p.tomb_slot != kNone || !p.tombstone ||
      p.sequence == slots_[origin].fact_seq) {
    return;
  }
  p.tomb_slot = static_cast<uint32_t>(stale_goodbyes_.size());
  stale_goodbyes_.push_back(origin);
}

uint32_t VersionedCatalog::PutFact(uint32_t origin, uint32_t fact,
                                   SyncEntry entry, Stamp stamp) {
  const bool replaced = fact != kNone;
  const uint32_t area = InternArea(entry.entry.area);
  entry.entry.area = ns::InterestArea();  // areas_ holds it
  if (replaced) {
    ReleaseArea(facts_[fact].area);
  } else {
    const uint32_t server = Intern(entry.entry.server);
    fact = TakeSlot(&facts_, &free_facts_);
    Fact& f = facts_[fact];
    f.origin = origin;
    f.server = server;
    // Link into the origin's list in Key() order, and onto the server's.
    const FactRef added{entry, areas_[area].text};
    uint32_t* link = &rows_[origin].first_fact;
    while (*link != kNone) {
      const Fact& next = facts_[*link];
      if (FactKeyLess(added, {next.entry, AreaText(next)})) break;
      link = &facts_[*link].next_of_origin;
    }
    f.next_of_origin = *link;
    *link = fact;
    f.next_naming = rows_[server].first_naming;
    rows_[server].first_naming = fact;
  }
  // A replacement keeps the key, so the server and both lists stay.
  Fact& f = facts_[fact];
  f.entry = std::move(entry);
  f.area = area;
  SetStamp(fact, replaced, stamp);
  return fact;
}

void VersionedCatalog::Remove(uint32_t fact) {
  Fact& f = facts_[fact];
  const uint32_t origin = f.origin;
  const double ttl = f.stamp.ttl_seconds;
  if (f.stamp.tombstone) UnmarkTombstone(&f.stamp);
  uint32_t* link = &rows_[origin].first_fact;
  while (*link != fact) link = &facts_[*link].next_of_origin;
  *link = f.next_of_origin;
  link = &rows_[f.server].first_naming;
  while (*link != fact) link = &facts_[*link].next_naming;
  *link = f.next_naming;
  ReleaseArea(f.area);
  f = Fact{};
  free_facts_.push_back(fact);
  if (ttl >= slots_[origin].ttl) RecomputeTtl(origin);
}

// --- local (own-origin) mutations ---------------------------------------------

uint64_t VersionedCatalog::NextOwnSequence(double now, bool record) {
  Slot& self = slots_[self_id_];
  self.seq = ++next_sequence_;
  self.in_vector = true;
  self.last_heard = now;
  if (record) {
    self.fact_seq = self.seq;
    NoteStaleGoodbye(self_id_);
  }
  return self.seq;
}

void VersionedCatalog::UpsertLocal(SyncEntry entry, double ttl_seconds,
                                   double now) {
  const Stamp stamp{.sequence = NextOwnSequence(now, /*record=*/true),
                    .ttl_seconds = ttl_seconds,
                    .stamped_at = now};
  if (entry.kind == SyncEntryKind::kPresence) {
    PutPresence(self_id_, stamp);
    return;
  }
  const uint32_t fact = FindFact(self_id_, entry);
  RetireReplacedProjection(self_id_, fact, entry, /*tombstone=*/false);
  Project(entry, entry.entry.area, self_id_);
  PutFact(self_id_, fact, std::move(entry), stamp);
}

void VersionedCatalog::TombstoneLocal(const SyncEntry& entry, double now) {
  const Stamp stamp{.sequence = NextOwnSequence(now, /*record=*/true),
                    .stamped_at = now,
                    .tombstone = true};
  if (entry.kind == SyncEntryKind::kPresence) {
    PutPresence(self_id_, stamp);
    return;
  }
  uint32_t fact = FindFact(self_id_, entry);
  // Withdraw the *stored* fact (it may differ from `entry` in non-key
  // fields like delay), then the one being tombstoned.
  RetireReplacedProjection(self_id_, fact, entry, /*tombstone=*/true);
  fact = PutFact(self_id_, fact, entry, stamp);
  Unproject(entry, entry.entry.area, self_id_, fact);
}

bool VersionedCatalog::Greet(double ttl_seconds, double now) {
  if (const Stamp* p = PresenceOf(self_id_); p != nullptr && !p->tombstone) {
    return false;
  }
  for (uint32_t f = rows_[self_id_].first_fact; f != kNone;
       f = facts_[f].next_of_origin) {
    if (!facts_[f].stamp.tombstone) return false;
  }
  UpsertLocal(PresenceEntry(), ttl_seconds, now);
  return true;
}

void VersionedCatalog::BumpPresence(double ttl_seconds, double now) {
  if (!Greet(ttl_seconds, now)) NextOwnSequence(now, /*record=*/false);
}

void VersionedCatalog::RestampOwn(double now) {
  auto restamp = [&](Stamp* stamp) {
    stamp->sequence = NextOwnSequence(now, /*record=*/true);
    stamp->stamped_at = now;
  };
  for (uint32_t f = rows_[self_id_].first_fact; f != kNone;
       f = facts_[f].next_of_origin) {
    if (facts_[f].stamp.tombstone) continue;
    restamp(&facts_[f].stamp);
    // Rejoin also reinstates the projection (a recovering peer republishes
    // its holdings); Project is idempotent for already-present entries.
    Project(facts_[f].entry, CellsOf(facts_[f].area), self_id_);
  }
  // A hello is the origin's last record in Key() order.
  if (const uint32_t p = rows_[self_id_].presence;
      p != kNone && !presences_[p].tombstone) {
    restamp(&presences_[p]);
  }
  slots_[self_id_].last_heard = now;
}

// --- anti-entropy --------------------------------------------------------------

template <typename Fn>
void VersionedCatalog::ForEachMissing(const RemoteVector& remote,
                                      bool listed_only, Fn&& fn) const {
  for (uint32_t id : by_key_) {
    const Slot& slot = slots_[id];
    if (!slot.in_vector || (listed_only && !remote.Lists(id))) continue;
    const uint64_t seen = remote.Seen(id);
    if (slot.fact_seq <= seen) continue;  // no stored record is newer
    for (uint32_t f = rows_[id].first_fact; f != kNone;
         f = facts_[f].next_of_origin) {
      if (facts_[f].stamp.sequence > seen) fn(id, f);
    }
    if (const Stamp* p = PresenceOf(id); p != nullptr && p->sequence > seen) {
      fn(id, kNone);
    }
  }
}

template <typename Fn>
void VersionedCatalog::ForEachHeartbeat(const RemoteVector& remote,
                                        bool listed_only, Fn&& fn) const {
  for (uint32_t id : by_address_) {
    const Slot& slot = slots_[id];
    if (!slot.in_vector || (listed_only && !remote.Lists(id))) continue;
    if (slot.seq > remote.Seen(id) && slot.seq > slot.fact_seq) fn(id);
  }
}

template <typename Fn>
void VersionedCatalog::ForEachWant(const RemoteVector& remote,
                                   Fn&& fn) const {
  // Listed origins the table knows, merged in address order with the
  // ones it does not (kept aside, ascending).
  auto unknown = remote.unknown_.begin();
  const auto end = remote.unknown_.end();
  for (uint32_t id : by_address_) {
    if (!remote.Lists(id) || remote.seen_[id].seq <= slots_[id].seq) continue;
    const std::string_view address = Address(id);
    for (; unknown != end && unknown->origin < address; ++unknown) {
      if (unknown->seq > 0) fn(std::string_view(unknown->origin), uint64_t{0});
    }
    fn(address, slots_[id].seq);
  }
  for (; unknown != end; ++unknown) {
    if (unknown->seq > 0) fn(std::string_view(unknown->origin), uint64_t{0});
  }
}

void VersionedCatalog::ReadInto(std::string_view origin, uint64_t seq,
                                uint64_t fact_seq, RemoteVector* out) const {
  ++out->listed_;
  const uint32_t id = FindListed(origin, &out->cursor_);
  if (id != kNone) {
    out->seen_[id] = {seq, fact_seq};
  } else {
    out->unknown_.push_back({std::string(origin), seq, fact_seq});
  }
}

void RemoteVector::SortUnknown() {
  // The last listing wins, as it does by id.
  std::stable_sort(unknown_.begin(), unknown_.end(),
                   [](const Unknown& a, const Unknown& b) {
                     return a.origin < b.origin;
                   });
  size_t kept = 0;
  for (size_t i = 0; i < unknown_.size(); ++i) {
    const bool superseded = i + 1 < unknown_.size() &&
                            unknown_[i + 1].origin == unknown_[i].origin;
    if (superseded) continue;
    if (kept != i) unknown_[kept] = std::move(unknown_[i]);
    ++kept;
  }
  unknown_.resize(kept);
}

Status VersionedCatalog::ReadDigest(std::string_view body,
                                    RemoteVector* out) const {
  out->Reset(slots_.size());
  MQP_RETURN_IF_ERROR(ParseGossipBody(
      body, "digest", /*in_delta=*/false,
      [&](std::string_view origin, uint64_t seq, uint64_t fact_seq) {
        ReadInto(origin, seq, fact_seq, out);
      },
      NoWants, NoRecords));
  out->SortUnknown();
  return Status::OK();
}

Status VersionedCatalog::ReadDelta(std::string_view body,
                                   IncomingDelta* out) const {
  out->heartbeats.Reset(slots_.size());
  out->wants.Reset(slots_.size());
  out->records.clear();
  out->origins.clear();
  MQP_RETURN_IF_ERROR(ParseGossipBody(
      body, "delta", /*in_delta=*/true,
      [&](std::string_view origin, uint64_t seq, uint64_t) {
        ReadInto(origin, seq, seq, &out->heartbeats);
      },
      [&](std::string_view origin, uint64_t seq) {
        ReadInto(origin, seq, seq, &out->wants);
      },
      [&](const xml::AttrList& attrs) {
        return DecodeRecord(attrs, &out->records.emplace_back());
      }));
  out->heartbeats.SortUnknown();
  out->wants.SortUnknown();
  return Status::OK();
}

CatalogDelta VersionedCatalog::DeltaSince(const VersionVector& remote) const {
  RemoteVector dense;  // a map lists each origin once, ascending
  dense.Reset(slots_.size());
  for (const auto& [origin, seq] : remote) ReadInto(origin, seq, seq, &dense);
  CatalogDelta delta;
  ForEachHeartbeat(dense, /*listed_only=*/false, [&](uint32_t id) {
    delta.heartbeats.emplace_hint(delta.heartbeats.end(), Address(id),
                                  slots_[id].seq);
  });
  ForEachMissing(dense, /*listed_only=*/false, [&](uint32_t id, uint32_t f) {
    delta.records.push_back(RecordOf(id, f));
  });
  return delta;
}

size_t VersionedCatalog::Absorb(const RemoteVector& remote, double now,
                                std::vector<uint32_t>* advanced) {
  const size_t before = advanced->size();
  for (uint32_t id : by_address_) {
    if (!remote.Lists(id)) continue;
    const RemoteVector::Listed& e = remote.seen_[id];
    const Slot& slot = slots_[id];
    if (slot.in_vector && e.seq > slot.seq && e.fact_seq <= slot.seq) {
      Advance(id, e.seq, now);
      advanced->push_back(id);
    }
  }
  return advanced->size() - before;
}

std::string VersionedCatalog::DigestXml() const {
  std::string out;
  xml::TokenWriter w(&out);
  w.Start("digest");
  for (uint32_t id : by_address_) {
    const Slot& slot = slots_[id];
    if (slot.in_vector) {
      EmitEntry(&w, "v", Address(id), slot.seq, slot.fact_seq);
    }
  }
  w.End();
  return out;
}

size_t VersionedCatalog::WriteDelta(const RemoteVector& remote,
                                    bool listed_only, bool wants,
                                    std::string* out) const {
  const size_t start = out->size();
  bool any = false;
  xml::TokenWriter w(out);
  w.Start("delta");
  ForEachHeartbeat(remote, listed_only, [&](uint32_t id) {
    EmitEntry(&w, "v", Address(id), slots_[id].seq, slots_[id].seq);
    any = true;
  });
  if (wants) {
    ForEachWant(remote, [&](std::string_view origin, uint64_t seq) {
      EmitEntry(&w, "want", origin, seq, seq);
      any = true;
    });
  }
  size_t records = 0;
  ForEachMissing(remote, listed_only, [&](uint32_t id, uint32_t f) {
    const Stamp& s = f == kNone ? *PresenceOf(id) : facts_[f].stamp;
    const FactRef fact = f == kNone
                             ? FactRef{PresenceEntry(), {}}
                             : FactRef{facts_[f].entry, AreaText(facts_[f])};
    EmitRecord(&w, Address(id), s.sequence, fact, s.tombstone,
               s.ttl_seconds);
    ++records;
  });
  w.End();
  if (!any && records == 0) out->resize(start);
  return records;
}

size_t VersionedCatalog::WriteReply(const RemoteVector& remote,
                                    std::string* out) const {
  return WriteDelta(remote, /*listed_only=*/false, /*wants=*/true, out);
}

size_t VersionedCatalog::WritePushBack(const RemoteVector& wants,
                                       std::string* out) const {
  return WriteDelta(wants, /*listed_only=*/true, /*wants=*/false, out);
}

void VersionedCatalog::Advance(uint32_t id, uint64_t seq, double now) {
  Slot& slot = slots_[id];
  slot.seq = seq;
  slot.last_heard = now;
  if (id == self_id_) {
    // Defensive: never re-issue a sequence an echo proved spent.
    next_sequence_ = std::max(next_sequence_, seq);
  }
  if (slot.expired) {
    // The origin is refreshing again: reinstate its live records.
    slot.expired = false;
    for (uint32_t f = rows_[id].first_fact; f != kNone;
         f = facts_[f].next_of_origin) {
      if (!facts_[f].stamp.tombstone) {
        Project(facts_[f].entry, CellsOf(facts_[f].area), id);
      }
    }
  }
}

bool VersionedCatalog::ApplyRecord(const VersionedRecord& in, uint32_t origin,
                                   double now) {
  // Absorb the version even when the record itself loses LWW: the
  // vector tracks everything *seen*, not everything *kept*.
  slots_[origin].in_vector = true;
  if (in.version.sequence > slots_[origin].seq) {
    Advance(origin, in.version.sequence, now);
  }
  slots_[origin].fact_seq =
      std::max(slots_[origin].fact_seq, in.version.sequence);
  NoteStaleGoodbye(origin);
  const Stamp stamp{.sequence = in.version.sequence,
                    .ttl_seconds = in.ttl_seconds,
                    .stamped_at = now,
                    .tombstone = in.tombstone};
  // Within one origin, the LWW order reduces to a higher sequence.
  if (in.entry.kind == SyncEntryKind::kPresence) {
    if (const Stamp* p = PresenceOf(origin);
        p != nullptr && in.version.sequence <= p->sequence) {
      return false;  // stale or duplicate: idempotence
    }
    PutPresence(origin, stamp);
    return true;
  }
  const uint32_t fact = FindFact(origin, in.entry);
  if (fact != kNone && in.version.sequence <= facts_[fact].stamp.sequence) {
    return false;
  }
  RetireReplacedProjection(origin, fact, in.entry, in.tombstone);
  if (in.tombstone) {
    Unproject(in.entry, in.entry.entry.area, origin, fact);
  } else {
    Project(in.entry, in.entry.entry.area, origin);
  }
  PutFact(origin, fact, in.entry, stamp);
  return true;
}

size_t VersionedCatalog::Apply(const CatalogDelta& delta, double now) {
  size_t changed = 0;
  for (const VersionedRecord& in : delta.records) {
    changed += ApplyRecord(in, Intern(in.version.origin), now) ? 1 : 0;
  }
  // The delta carries every record up to each heartbeat entry.
  for (const auto& [origin, seq] : delta.heartbeats) {
    const uint32_t id = Find(origin);
    if (id != kNone && slots_[id].in_vector && seq > slots_[id].seq) {
      Advance(id, seq, now);
    }
  }
  return changed;
}

size_t VersionedCatalog::Apply(IncomingDelta* delta, double now) {
  size_t changed = 0;
  uint32_t origin = kNone;
  const std::string* last = nullptr;
  for (const VersionedRecord& in : delta->records) {
    // Deltas arrive in Key() order, so one origin's records are adjacent.
    if (last == nullptr || in.version.origin != *last) {
      origin = Intern(in.version.origin);
      last = &in.version.origin;
    }
    delta->origins.push_back(origin);
    changed += ApplyRecord(in, origin, now) ? 1 : 0;
  }
  // Entries of origins the records just introduced.
  for (RemoteVector* entries : {&delta->heartbeats, &delta->wants}) {
    entries->seen_.resize(slots_.size());
    for (const RemoteVector::Unknown& u : entries->unknown_) {
      const uint32_t id = Find(u.origin);
      if (id != kNone) entries->seen_[id] = {u.seq, u.fact_seq};
    }
  }
  const RemoteVector& heartbeats = delta->heartbeats;
  // The delta carries every record up to each heartbeat entry.
  delta->advanced.clear();
  for (uint32_t id : by_address_) {
    if (heartbeats.Lists(id) && slots_[id].in_vector &&
        heartbeats.seen_[id].seq > slots_[id].seq) {
      Advance(id, heartbeats.seen_[id].seq, now);
      delta->advanced.push_back(id);
    }
  }
  return changed;
}

// --- liveness ----------------------------------------------------------------

double VersionedCatalog::LastHeard(const std::string& origin) const {
  const uint32_t id = Find(origin);
  return id == kNone ? 0 : slots_[id].last_heard;
}

std::vector<std::string> VersionedCatalog::ExpireSilent(double now) {
  std::vector<std::string> newly_expired;
  for (uint32_t id : by_address_) {
    Slot& slot = slots_[id];
    if (!slot.in_vector || id == self_id_ || slot.expired) continue;
    if (slot.ttl <= 0) continue;
    if (now - slot.last_heard <= slot.ttl) continue;
    slot.expired = true;
    newly_expired.emplace_back(Address(id));
    for (uint32_t f = rows_[id].first_fact; f != kNone;
         f = facts_[f].next_of_origin) {
      if (!facts_[f].stamp.tombstone) {
        Unproject(facts_[f].entry, CellsOf(facts_[f].area), id, f);
      }
    }
  }
  return newly_expired;
}

std::vector<std::string> VersionedCatalog::LiveOrigins(double now) const {
  std::vector<std::string> live;
  for (uint32_t id : by_address_) {
    const Slot& slot = slots_[id];
    if (id != self_id_) {
      if (!slot.in_vector) continue;
      if (slot.ttl > 0 && now - slot.last_heard > slot.ttl) continue;
    }
    live.emplace_back(Address(id));
  }
  return live;
}

size_t VersionedCatalog::PurgeTombstones(double now, double min_age) {
  size_t purged = 0;
  for (size_t i = 0; i < tombs_.size();) {
    const Fact& f = facts_[tombs_[i]];
    // Each origin's newest record stays (see the header comment).
    if (now - f.stamp.stamped_at >= min_age &&
        f.stamp.sequence != slots_[f.origin].fact_seq) {
      Remove(tombs_[i]);  // moves the last tombstone into slot i
      ++purged;
    } else {
      ++i;
    }
  }
  // Goodbyes that a newer record of their origin superseded as its newest
  // (a hello may since have replaced one: it only leaves the list).
  size_t kept = 0;
  for (const uint32_t origin : stale_goodbyes_) {
    uint32_t& id = rows_[origin].presence;
    Stamp& p = presences_[id];
    const bool stale = p.tombstone && p.sequence != slots_[origin].fact_seq;
    if (stale && now - p.stamped_at < min_age) {
      p.tomb_slot = static_cast<uint32_t>(kept);
      stale_goodbyes_[kept++] = origin;
      continue;
    }
    p.tomb_slot = kNone;
    if (!stale) continue;
    const double ttl = p.ttl_seconds;
    p = Stamp{};
    free_presences_.push_back(id);
    id = kNone;
    if (ttl >= slots_[origin].ttl) RecomputeTtl(origin);
    ++purged;
  }
  stale_goodbyes_.resize(kept);
  return purged;
}

// --- projection ----------------------------------------------------------------

void VersionedCatalog::RetireReplacedProjection(uint32_t origin, uint32_t fact,
                                                const SyncEntry& entry,
                                                bool tombstone) {
  // The record key covers identity fields only; a newer version of the
  // same key may carry a *different* fact payload (delay_minutes is not
  // part of identity). Projection add/remove works on full IndexEntry
  // equality, so the superseded shape must be withdrawn explicitly or it
  // would linger in the catalog forever.
  if (fact == kNone) return;
  const Fact& stored = facts_[fact];
  if (stored.stamp.tombstone) return;
  if (SameFact(stored, entry, entry.entry.area) && !tombstone) return;
  Unproject(stored.entry, CellsOf(stored.area), origin, fact);
}

void VersionedCatalog::Project(const SyncEntry& entry,
                               const ns::InterestArea& area, uint32_t origin) {
  if (projection_ == nullptr || slots_[origin].expired) return;
  if (entry.kind == SyncEntryKind::kArea) {
    const IndexEntry& e = entry.entry;
    projection_->AddEntry({e.level, area, e.server, e.xpath, e.delay_minutes});
  } else if (entry.entry.level == HoldingLevel::kBase) {
    projection_->AddNamedMapping(entry.urn, entry.entry.server,
                                 entry.entry.xpath);
  } else {
    projection_->AddNamedReferral(entry.urn, entry.entry.server);
  }
}

void VersionedCatalog::Unproject(const SyncEntry& entry,
                                 const ns::InterestArea& area, uint32_t origin,
                                 uint32_t under_key) {
  if (projection_ == nullptr) return;
  // Every other live, unexpired fact naming the server is on its row's
  // list. One from another origin asserting the identical fact keeps it
  // projected: only the last asserter's withdrawal removes it.
  const std::string& server = entry.entry.server;
  bool server_still_asserted = false;
  if (const uint32_t s = Find(server); s != kNone) {
    for (uint32_t id = rows_[s].first_naming; id != kNone;
         id = facts_[id].next_naming) {
      const Fact& other = facts_[id];
      if (id == under_key || other.stamp.tombstone ||
          slots_[other.origin].expired) {
        continue;
      }
      if (other.origin != origin && SameFact(other, entry, area)) return;
      server_still_asserted = true;
    }
  }
  const IndexEntry& e = entry.entry;
  const IndexEntry removed{e.level, area, e.server, e.xpath, e.delay_minutes};
  if (entry.kind == SyncEntryKind::kArea) {
    projection_->RemoveEntry(removed);
  } else {
    projection_->RemoveNamedEntry(entry.urn, removed);
  }
  // When the withdrawal/expiry removed the server's last live fact, any
  // intensional statement naming it would keep steering bindings at a
  // gone peer (the same hazard Catalog::RemoveServer guards against) —
  // drop those too. Statements travel by registration, not gossip:
  // Peer::RejoinNetwork re-registers so *its own* statements come back,
  // but third-party statements about the server (e.g. a replica's
  // containment assertion from PullIndexedData) stay dropped until their
  // asserter re-registers or re-pulls.
  if (!server_still_asserted) {
    projection_->RemoveStatementsNaming(server);
  }
}

}  // namespace mqp::catalog
