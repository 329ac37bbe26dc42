// Versioned catalog state for dynamic maintenance (src/sync/).
//
// The paper's catalogs are built once at registration time; this module
// makes them *living* objects. Every catalog fact a peer asserts about
// itself — an interest-area entry or a named mapping — becomes a
// VersionedRecord stamped with an (origin, sequence) version, and removal
// is a tombstone rather than a deletion. A record's identity is
// (origin, fact): one origin's tombstone can never clobber another
// origin's assertion. Records merge with last-writer-wins semantics per
// identity, ordered by sequence, which makes CatalogDelta application
// idempotent and commutative: any gossip exchange order converges.
//
// A version vector summarizes everything a catalog has absorbed. Each
// entry is (seq, fact_seq): seq is the highest sequence absorbed from the
// origin, fact_seq the origin's newest sequence that stamped a record
// (fact_seq <= seq). Everything rests on one invariant:
//
//   If a catalog's vector lists seq s for origin o, the catalog holds
//   every record of o with sequence <= s (that record, or a newer one
//   under the same key; tombstones may since have been purged).
//
// A heartbeat advances its origin's seq and creates no record. So a
// catalog whose own seq for o is at least a remote fact_seq lacks no
// record of o up to the remote seq, and absorbs the remote seq straight
// from a digest (Absorb). Everything else travels as records in deltas,
// with heartbeat entries for the sequences no record carries (see
// sync/gossip.h).
//
// Liveness is TTL-based: each origin periodically advances its sequence;
// a catalog that stops absorbing *any* new sequence of an origin for
// longer than the origin's TTL (the largest TTL its stored records
// declare) drops that origin's entries from the queryable projection
// (they reappear the moment the origin refreshes again). Membership
// itself is a presence record: a goodbye (tombstoned) when the origin
// departs, and a hello (live) only while the origin holds no other live
// record of its own, so every member is interned by the catalogs that
// hear of it. Tombstones are purged only after a long quiet period,
// bounding memory.
//
// Storage follows the operations, not the records (DESIGN.md §3, Cost).
// Each catalog interns every origin and server address it stores once, to
// a dense id; the table is per catalog and peer-confined like the catalog
// itself (DESIGN.md §8). It is kept in columns by id. What every vector
// walk reads — the address, the vector entry, last-heard time, TTL and
// the in-vector and expiry flags — sits in flat arrays, the addresses back
// to back in one buffer, so a digest, a reply or an expiry check is a
// linear pass that touches no record. A row keeps what records touch: the
// origin's facts in Key() order, the stored facts that name the address
// as their server, and the origin's hello or goodbye, which costs no fact.
// Digests and deltas list origins in address order, so a read matches
// them to ids by one forward merge against the address order. A gossip
// tick then reads one slot per origin, a digest costs the origin count, a
// delta costs its own records, and a withdrawal costs the few facts that
// name one server.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"

namespace mqp::xml {
class TokenWriter;
}  // namespace mqp::xml

namespace mqp::catalog {

/// \brief (origin, sequence) stamp. Sequences are per-origin monotonic;
/// cross-origin ties break on the origin string so merges are
/// deterministic regardless of arrival order.
struct EntryVersion {
  std::string origin;    ///< address of the asserting peer
  uint64_t sequence = 0; ///< per-origin monotonic counter

  bool operator==(const EntryVersion& other) const = default;
};

/// \brief origin → highest sequence absorbed from that origin;
/// VersionedCatalog::vector() returns one as a snapshot.
using VersionVector = std::map<std::string, uint64_t>;

/// \brief One version-vector entry as digests carry it.
struct VectorEntry {
  uint64_t seq = 0;       ///< highest sequence absorbed from the origin
  uint64_t fact_seq = 0;  ///< the origin's newest record sequence, <= seq

  bool operator==(const VectorEntry& other) const = default;
};

/// \brief origin → (seq, fact_seq): what peers exchange as a digest.
using Digest = std::map<std::string, VectorEntry>;

/// Digest wire format: "<digest><v o='addr' s='7' f='3'/>...</digest>",
/// `f` omitted when it equals `s` (the conservative reading of a bare
/// <v>: a receiver behind on it pulls). Rejects an `f` that is not an
/// integer >= 0 or exceeds `s`. When an origin is listed twice, the last
/// <v> wins.
std::string DigestToXml(const Digest& digest);
Result<Digest> DigestFromXml(const std::string& text);

/// \brief What kind of catalog fact a record carries.
enum class SyncEntryKind {
  kArea,      ///< an interest-area IndexEntry
  kNamed,     ///< a named mapping/referral (urn + IndexEntry)
  /// The origin's membership: a goodbye when tombstoned, else a hello.
  /// Never projected into the catalog.
  kPresence,
};

/// \brief One syncable catalog fact.
struct SyncEntry {
  SyncEntryKind kind = SyncEntryKind::kArea;
  std::string urn;  ///< kNamed only
  IndexEntry entry; ///< kArea/kNamed; ignored for kPresence

  bool operator==(const SyncEntry& other) const = default;
};

/// \brief A versioned, possibly-tombstoned catalog fact. Identity is
/// Key(); `version` orders updates to the same key.
struct VersionedRecord {
  EntryVersion version;
  SyncEntry entry;
  bool tombstone = false;
  /// Origin-declared liveness horizon: entries from an origin silent for
  /// longer than this drop out of the projection (0 = never expire).
  double ttl_seconds = 0;
  /// Local bookkeeping only (never gossiped, excluded from equality):
  /// when this version was stamped/applied *here*; tombstone GC uses it.
  double stamped_at = 0;

  /// Stable record identity, "origin|" + the fact's own identity —
  /// "presence" for membership, else "kind|urn|level|area|server|xpath"
  /// (delay is not identity) — so one origin's tombstone can never
  /// clobber another origin's assertion. Only the trailing xpath may
  /// contain '|' (the delta decoder rejects any other field that does),
  /// so Key() order is origin-major and then field by field.
  std::string Key() const;

  /// Equality over the gossiped fields only (stamped_at is local).
  bool operator==(const VersionedRecord& other) const {
    return version == other.version && entry == other.entry &&
           tombstone == other.tombstone && ttl_seconds == other.ttl_seconds;
  }
};

/// \brief A set of records in transit: the unit gossip ships. Application
/// through VersionedCatalog::Apply is idempotent and commutative.
struct CatalogDelta {
  std::vector<VersionedRecord> records;
  /// Heartbeat entries: the sender's seq for each origin where it is
  /// ahead of what the receiver listed and no record here carries that
  /// seq. Every record of the origin above the receiver's listed seq is
  /// in `records`, so the receiver absorbs the entry as it is.
  VersionVector heartbeats;
  /// Fact-gap requests: origins whose records the sender lacks, each with
  /// the sender's seq; the receiver pushes back what is newer.
  VersionVector wants;

  bool empty() const {
    return records.empty() && heartbeats.empty() && wants.empty();
  }
  size_t size() const { return records.size(); }

  /// "<delta><v o s/>...<want o s/>...<rec .../>...</delta>".
  std::string ToXml() const;
  /// Rejects a record whose origin is empty, whose origin, urn, area or
  /// server contains '|' (Key() would be ambiguous), whose sequence or
  /// ttl is not an integer >= 0, whose tomb is not 0 or 1, whose level is
  /// not base or index, or whose delay is not an int; and an entry whose
  /// origin is empty or whose `s` (or `f`, as in digests) is malformed.
  static Result<CatalogDelta> FromXml(const std::string& text);
};

/// \brief A remote vector read against one catalog's address table
/// (VersionedCatalog::ReadDigest / ReadDelta): dense by address id, so
/// reading one builds no map node per entry. Origins the catalog does not
/// know are kept aside and never interned, so a hostile digest cannot
/// grow the catalog. Reuse one across messages to keep reads
/// allocation-free.
class RemoteVector {
 public:
  /// True when the body listed no entry.
  bool empty() const { return listed_ == 0; }

 private:
  friend class VersionedCatalog;
  /// Marks an id the body did not list (decoded sequences are < 2^63).
  static constexpr uint64_t kUnlisted = UINT64_MAX;
  struct Listed {
    uint64_t seq = kUnlisted;
    uint64_t fact_seq = 0;
  };
  struct Unknown {
    std::string origin;
    uint64_t seq = 0;
    uint64_t fact_seq = 0;
  };

  void Reset(size_t ids) {
    seen_.assign(ids, Listed{});
    unknown_.clear();
    listed_ = 0;
    cursor_ = 0;
  }
  bool Lists(uint32_t id) const {
    return id < seen_.size() && seen_[id].seq != kUnlisted;
  }
  /// The sequence listed for address `id` (0 when unlisted).
  uint64_t Seen(uint32_t id) const { return Lists(id) ? seen_[id].seq : 0; }
  /// Puts unknown_ in address order, keeping each origin's last listing.
  void SortUnknown();

  std::vector<Listed> seen_;  ///< by address id
  /// Origins not in the table when read: in body order while reading,
  /// then ascending, each listed once.
  std::vector<Unknown> unknown_;
  size_t listed_ = 0;  ///< entries read, unknown origins included
  /// The merge read's position in the catalog's address order: every
  /// address before it is at or below the last origin found in order.
  size_t cursor_ = 0;
};

/// \brief A delta body read against one catalog (ReadDelta) and consumed
/// by Apply.
struct IncomingDelta {
  std::vector<VersionedRecord> records;
  /// Per record, its origin's address id; filled in by Apply.
  std::vector<uint32_t> origins;
  RemoteVector heartbeats;  ///< the delta's heartbeat entries
  RemoteVector wants;       ///< the delta's fact-gap requests
  /// The origins a heartbeat entry advanced; filled in by Apply.
  std::vector<uint32_t> advanced;
};

/// \brief Versioned overlay over a plain Catalog. Owns the records and the
/// version vector; mirrors live records into the projection catalog (not
/// owned, may be null) so the existing resolution machinery sees exactly
/// the live view.
class VersionedCatalog {
 public:
  /// `self` is this peer's address (its origin id); `projection` receives
  /// live entries and may be null (pure-state uses, tests).
  VersionedCatalog(std::string self, Catalog* projection);

  const std::string& self() const { return self_; }

  /// The dense id of `address` in this catalog's address table, interning
  /// it when new. Ids are stable for the catalog's lifetime, so callers
  /// may key their own per-address state by them (the gossip partner
  /// pool does).
  uint32_t InternAddress(std::string_view address) { return Intern(address); }
  /// The id of `address`, or kNoAddress when the table lacks it.
  uint32_t FindAddress(std::string_view address) const {
    return Find(address);
  }
  /// The address of `id`. The view lasts until another address is
  /// interned.
  std::string_view Address(uint32_t id) const {
    const uint32_t begin = id == 0 ? 0 : name_end_[id - 1];
    return std::string_view(names_.data() + begin, name_end_[id] - begin);
  }
  static constexpr uint32_t kNoAddress = UINT32_MAX;

  /// Snapshots for tests and convergence checks; the gossip path reads
  /// the table directly (DigestXml, WriteReply).
  VersionVector vector() const;
  Digest digest() const;
  std::map<std::string, VersionedRecord> records() const;

  // --- local (own-origin) mutations -------------------------------------------

  /// Asserts/updates a fact originated here, stamping the next sequence.
  void UpsertLocal(SyncEntry entry, double ttl_seconds, double now);

  /// Tombstones a fact originated here (graceful withdrawal).
  void TombstoneLocal(const SyncEntry& entry, double now);

  /// Stamps a hello — a live presence record declaring `ttl_seconds` —
  /// when this origin holds no live record of its own, so catalogs that
  /// hear of it intern it and no goodbye stays its newest record. Returns
  /// whether it stamped one.
  bool Greet(double ttl_seconds, double now);

  /// The periodic refresh that keeps this origin alive remotely: a
  /// heartbeat, which advances the sequence and stamps no record — or a
  /// hello, when Greet needs one.
  void BumpPresence(double ttl_seconds, double now);

  /// Re-stamps *all* live own records with fresh sequences. Called on
  /// recovery/rejoin: remote vectors already dominate the old stamps, so
  /// only re-stamped records propagate again.
  void RestampOwn(double now);

  // --- anti-entropy ------------------------------------------------------------

  /// Every record whose version the remote vector has not absorbed, in
  /// ascending Key() order, plus a heartbeat entry for every origin where
  /// this catalog is ahead and no record carries its seq.
  CatalogDelta DeltaSince(const VersionVector& remote) const;

  /// Merges `delta`'s records, then absorbs its heartbeat entries of
  /// origins this vector lists; returns how many records changed. Fresher
  /// versions win per key; stale or duplicate records are no-ops
  /// (idempotence).
  size_t Apply(const CatalogDelta& delta, double now);

  // The wire path: the same operations over the dense RemoteVector.

  /// DigestToXml(digest()), written straight from the table.
  std::string DigestXml() const;
  /// Reads a digest body into `out`.
  Status ReadDigest(std::string_view body, RemoteVector* out) const;
  /// Reads a delta body into `out` (same checks as CatalogDelta::FromXml).
  Status ReadDelta(std::string_view body, IncomingDelta* out) const;
  /// Absorbs the heartbeat-only advances a digest lists: the remote seq
  /// of every origin this vector lists whose remote seq is newer and
  /// whose remote fact_seq is at most the local seq. By the invariant no
  /// record of the origin lies in between. Refreshes last-heard and
  /// reinstates an expired origin, as a record would. Appends the ids of
  /// the origins advanced to `advanced`, and returns how many.
  size_t Absorb(const RemoteVector& remote, double now,
                std::vector<uint32_t>* advanced);
  /// Appends the reply to digest `remote` and returns its record count;
  /// writes nothing when there is nothing to say. The reply is
  /// DeltaSince(remote) plus a want for every origin the digest lists
  /// newer than this vector (unknown origins at 0), in address order.
  /// Call it after Absorb, so the wants are the fact gaps.
  size_t WriteReply(const RemoteVector& remote, std::string* out) const;
  /// Appends the push-back for `wants` (a delta's fact-gap requests) and
  /// returns its record count: DeltaSince over the listed origins only.
  size_t WritePushBack(const RemoteVector& wants, std::string* out) const;
  /// Apply for a read delta. Also fills `delta->origins` and
  /// `delta->advanced`.
  size_t Apply(IncomingDelta* delta, double now);

  // --- liveness ----------------------------------------------------------------

  /// Local time we last absorbed a new version from `origin` (0 = never).
  double LastHeard(const std::string& origin) const;

  /// Drops projection entries of origins whose TTL lapsed; returns the
  /// origins that newly expired, ascending. Own records never expire.
  std::vector<std::string> ExpireSilent(double now);

  /// Origins currently considered live here (self included), ascending.
  std::vector<std::string> LiveOrigins(double now) const;

  /// Purges tombstoned records older than `min_age`, except each origin's
  /// newest record (the one stamped fact_seq): a peer joining after the
  /// purge interns the origin from that record only, and absorbs its seq
  /// from the heartbeat entry that travels with it; it also keeps every
  /// catalog's fact_seq the same for the same seq. Returns the number
  /// purged (memory stays bounded at one record per dead origin: its
  /// goodbye, held in its row).
  size_t PurgeTombstones(double now, double min_age);

 private:
  static constexpr uint32_t kNone = kNoAddress;

  /// The version and liveness fields of one stored record; its origin
  /// is the row that holds it.
  struct Stamp {
    uint64_t sequence = 0;
    double ttl_seconds = 0;
    double stamped_at = 0;
    /// A fact's index in tombs_ while a tombstone; a goodbye's index in
    /// stale_goodbyes_ while listed there.
    uint32_t tomb_slot = kNone;
    bool tombstone = false;
  };
  /// A stored area or named fact (presence lives in the row). Lists
  /// thread through the pool by id: a row costs two ids, not two
  /// containers.
  struct Fact {
    SyncEntry entry;  ///< entry.entry.area stays empty: see `area`
    Stamp stamp;
    uint32_t area = kNone;  ///< the fact's area, in areas_
    uint32_t origin = kNone;
    uint32_t server = kNone;          ///< row of entry.entry.server
    uint32_t next_of_origin = kNone;  ///< the origin's next fact, Key() order
    uint32_t next_naming = kNone;     ///< next fact naming the same server
  };
  /// What the vector walks read of one address: slots_[id].
  struct Slot {
    uint64_t seq = 0;  ///< the vector entry's seq
    /// The vector entry's fact_seq: the newest sequence of any record
    /// applied here. The record stamped with it stays stored (purges keep
    /// it), so it is also the newest stored sequence.
    uint64_t fact_seq = 0;
    double last_heard = 0;
    double ttl = 0;  ///< max declared TTL over stored records (floor 0)
    bool in_vector = false;  ///< vector() lists it (it has stored records)
    bool expired = false;
  };
  /// What the records of one address touch: rows_[id].
  struct Row {
    uint32_t first_fact = kNone;    ///< the origin's facts, Key() order
    uint32_t first_naming = kNone;  ///< stored facts naming this address
    /// The origin's presence record, in presences_ (kNone: none): its
    /// hello, or its goodbye when tombstoned. Its key sorts after every
    /// fact's, so it is the origin's last record in Key() order. A
    /// goodbye stays out of tombs_: it is its origin's newest record,
    /// which no purge removes, until the origin stamps again; only then
    /// is it listed in stale_goodbyes_.
    uint32_t presence = kNone;
  };
  /// A fact area, shared by the facts that carry it and kept as Key()
  /// and the wire print it: a printed area is a fraction of the parsed
  /// one, and every catalog holds every seller's facts. Cells are kept
  /// only for an area its text does not parse back to (a local segment
  /// holding '.', say).
  struct Area {
    std::string text;
    std::unique_ptr<ns::InterestArea> odd;
    uint32_t refs = 0;
  };

  /// The first id in by_address_ not below `address`.
  std::vector<uint32_t>::const_iterator ByAddress(
      std::string_view address) const;
  uint32_t Find(std::string_view address) const;
  /// Find for an origin a body lists: merged forward from `*cursor` in
  /// address order, or searched for when it is not above the address
  /// before the cursor (a repeated or out-of-order listing).
  uint32_t FindListed(std::string_view origin, size_t* cursor) const;
  uint32_t Intern(std::string_view address);
  /// The id of row `origin`'s area or named fact stored under `entry`'s
  /// key, or kNone.
  uint32_t FindFact(uint32_t origin, const SyncEntry& entry) const;
  uint32_t InternArea(const ns::InterestArea& cells);
  void ReleaseArea(uint32_t id);
  /// The ids in area_order_ of the areas printed as `text`.
  std::pair<std::vector<uint32_t>::iterator, std::vector<uint32_t>::iterator>
  AreasPrintedAs(std::string_view text);
  std::string_view AreaText(const Fact& fact) const {
    return areas_[fact.area].text;
  }
  ns::InterestArea CellsOf(uint32_t area) const;
  /// SyncEntry equality between a stored fact and `entry` with `cells`.
  bool SameFact(const Fact& stored, const SyncEntry& entry,
                const ns::InterestArea& cells) const;
  /// The stored fact as a SyncEntry, its area filled in.
  SyncEntry EntryOf(const Fact& fact) const;
  /// Stamps a new own sequence into the self slot; `record`: a record
  /// carries it, so it is the new fact_seq too.
  uint64_t NextOwnSequence(double now, bool record);
  /// Row `origin`'s presence record, or null.
  const Stamp* PresenceOf(uint32_t origin) const {
    const uint32_t p = rows_[origin].presence;
    return p == kNone ? nullptr : &presences_[p];
  }
  /// Stores `stamp` as row `origin`'s presence record.
  void PutPresence(uint32_t origin, Stamp stamp);
  /// Lists row `origin`'s goodbye for purging once it is not the
  /// origin's newest record.
  void NoteStaleGoodbye(uint32_t origin);
  /// Record `fact` of row `origin` (kNone: its presence record).
  VersionedRecord RecordOf(uint32_t origin, uint32_t fact) const;
  /// Advances slot `id`'s seq to `seq`: refreshes last-heard and
  /// reinstates the origin if it had expired.
  void Advance(uint32_t id, uint64_t seq, double now);
  /// Applies one incoming record of row `origin`; true when it changed.
  bool ApplyRecord(const VersionedRecord& in, uint32_t origin, double now);
  /// Stores a fact of row `origin` over `fact`, or (kNone) as a new one.
  /// Returns its id.
  uint32_t PutFact(uint32_t origin, uint32_t fact, SyncEntry entry,
                   Stamp stamp);
  /// Overwrites fact `id`'s stamp (a stored record when `replaced`) with
  /// `stamp`, keeping tombs_ and the row's TTL current.
  void SetStamp(uint32_t id, bool replaced, Stamp stamp);
  /// Removes a purged tombstone.
  void Remove(uint32_t fact);
  void UnmarkTombstone(Stamp* stamp);
  /// Sets slot `id`'s TTL to the max over its stored records.
  void RecomputeTtl(uint32_t id);
  /// Keeps slot `origin`'s TTL current after one of its records was
  /// stored with `ttl`, over one declaring `old_ttl` when `replaced`.
  void UpdateTtl(uint32_t origin, bool replaced, double old_ttl, double ttl);
  /// Calls fn(origin id, fact id) for every record newer than `remote`
  /// lists, in ascending Key() order — fact id kNone for the presence
  /// record, which comes last; `listed_only` skips unlisted origins.
  template <typename Fn>
  void ForEachMissing(const RemoteVector& remote, bool listed_only,
                      Fn&& fn) const;
  /// Calls fn(id) for every origin that needs a heartbeat entry against
  /// `remote` (it is ahead, and no record carries its seq), in address
  /// order; `listed_only` skips unlisted origins.
  template <typename Fn>
  void ForEachHeartbeat(const RemoteVector& remote, bool listed_only,
                        Fn&& fn) const;
  /// Calls fn(address, local seq) for every origin `remote` lists newer
  /// than this vector, in address order.
  template <typename Fn>
  void ForEachWant(const RemoteVector& remote, Fn&& fn) const;
  /// Writes a <delta> of ForEachHeartbeat, ForEachWant when `wants`, and
  /// ForEachMissing; returns the record count, or writes nothing.
  size_t WriteDelta(const RemoteVector& remote, bool listed_only, bool wants,
                    std::string* out) const;
  /// Reads one listed entry into `out`: by id, or aside when unknown.
  /// Listings in address order are found by merge (FindListed).
  void ReadInto(std::string_view origin, uint64_t seq, uint64_t fact_seq,
                RemoteVector* out) const;

  /// Withdraws the projection of `fact` (stored under the key an incoming
  /// `entry` is about to replace) when its fact payload differs — the key
  /// covers identity fields only, e.g. delay_minutes can change.
  void RetireReplacedProjection(uint32_t origin, uint32_t fact,
                                const SyncEntry& entry, bool tombstone);
  // Project and Unproject take a fact's cells apart from its entry: a
  // stored fact keeps its area in areas_.
  /// Applies one fact to the projection catalog. Presence records never
  /// reach the projection: they are no facts.
  void Project(const SyncEntry& entry, const ns::InterestArea& area,
               uint32_t origin);
  /// Removes a fact of row `origin` from the projection unless another
  /// live record still asserts it. `under_key` is the fact stored under
  /// the withdrawn key (kNone if none); it never counts as an asserter.
  void Unproject(const SyncEntry& entry, const ns::InterestArea& area,
                 uint32_t origin, uint32_t under_key);

  std::string self_;
  Catalog* projection_;
  uint64_t next_sequence_ = 0;
  // The address table, by id. Columns grow by an eighth at a time, and
  // rows_ is a deque: a catalog per peer holds an entry per origin ever
  // heard of, so doubling growth would strand up to half of every table.
  std::vector<char> names_;         ///< every address, back to back
  std::vector<uint32_t> name_end_;  ///< where id's address ends in names_
  std::vector<Slot> slots_;
  std::deque<Row> rows_;
  uint32_t self_id_ = kNone;
  std::vector<uint32_t> by_address_;  ///< ids, ascending address
  std::vector<uint32_t> by_key_;      ///< ids, ascending address + '|'
  std::deque<Fact> facts_;            ///< pool; free ids in free_facts_
  std::vector<uint32_t> free_facts_;
  std::deque<Area> areas_;            ///< pool; free ids in free_areas_
  std::vector<uint32_t> free_areas_;
  std::vector<uint32_t> area_order_;  ///< live area ids, ascending text
  std::vector<uint32_t> tombs_;       ///< every tombstoned fact's id
  std::deque<Stamp> presences_;       ///< pool; free ids in free_presences_
  std::vector<uint32_t> free_presences_;
  /// Rows whose goodbye is not their newest record, so a purge may drop
  /// it once old enough.
  std::vector<uint32_t> stale_goodbyes_;
};

}  // namespace mqp::catalog
