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
// A VersionVector (origin → highest sequence seen) summarizes everything a
// catalog has absorbed; anti-entropy peers exchange vectors as compact
// digests and pull only the records the vector proves missing
// (see sync/gossip.h).
//
// Liveness is TTL-based: each origin periodically re-stamps a tiny
// presence record; a catalog that stops hearing *any* new version from an
// origin for longer than the origin's declared TTL drops that origin's
// entries from the queryable projection (they reappear the moment the
// origin refreshes again). Tombstones are purged only after a long quiet
// period, bounding memory.
//
// Storage follows the operations, not the records (DESIGN.md §3, Cost).
// Each catalog interns every origin and server address it stores once, to
// a dense id; the table is per catalog and peer-confined like the catalog
// itself (DESIGN.md §8). A row holds the origin's vector entry, last-heard
// time, TTL and expiry flag, its presence record as a slot, its facts in
// Key() order, and the stored facts that name the address as their
// server. A gossip tick then reads one row per origin, a digest costs the
// origin count, a delta costs its own records, and a withdrawal costs the
// few facts that name one server.
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

  /// Strictly newer-than, the LWW merge order for one record key.
  bool Newer(const EntryVersion& other) const {
    if (sequence != other.sequence) return sequence > other.sequence;
    return origin > other.origin;
  }

  bool operator==(const EntryVersion& other) const = default;
};

/// \brief origin → highest sequence absorbed from that origin. The digest
/// peers exchange during anti-entropy; VersionedCatalog::vector() returns
/// one as a snapshot.
using VersionVector = std::map<std::string, uint64_t>;

/// Digest wire format: "<digest><v o='addr' s='7'/>...</digest>". When an
/// origin is listed twice, the last <v> wins.
std::string DigestToXml(const VersionVector& vector);
Result<VersionVector> DigestFromXml(const std::string& text);

/// \brief What kind of catalog fact a record carries.
enum class SyncEntryKind {
  kArea,      ///< an interest-area IndexEntry
  kNamed,     ///< a named mapping/referral (urn + IndexEntry)
  kPresence,  ///< origin heartbeat; never projected into the catalog
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
  /// "presence" for a heartbeat, else "kind|urn|level|area|server|xpath"
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
  /// The sender's own version vector, piggybacked so the receiver can
  /// push back what the sender is missing without a digest round-trip
  /// (a small digest would overtake the large delta on a
  /// bandwidth-limited link and trigger a duplicate send). Empty when
  /// not attached.
  VersionVector sender_vector;

  bool empty() const { return records.empty(); }
  size_t size() const { return records.size(); }

  /// "<delta><v .../>...<rec .../>...</delta>".
  std::string ToXml() const;
  /// Rejects a record whose origin is empty, whose origin, urn, area or
  /// server contains '|' (Key() would be ambiguous), whose sequence or
  /// ttl is not an integer >= 0, whose tomb is not 0 or 1, whose level is
  /// not base or index, or whose delay is not an int.
  static Result<CatalogDelta> FromXml(const std::string& text);
};

/// \brief A remote version vector read against one catalog's address
/// table (VersionedCatalog::ReadDigest / ReadDelta): dense by address id,
/// so reading one builds no map node per entry. Origins the catalog does
/// not know are kept aside and never interned — they only tell Dominates
/// that something is missing here — so a hostile digest cannot grow the
/// catalog. Reuse one across messages to keep reads allocation-free.
class RemoteVector {
 public:
  /// True when the body listed no <v> element.
  bool empty() const { return listed_ == 0; }

 private:
  friend class VersionedCatalog;
  /// Marks an id the body did not list (decoded sequences are < 2^63).
  static constexpr uint64_t kUnlisted = UINT64_MAX;

  void Reset(size_t ids) {
    seen_.assign(ids, kUnlisted);
    unknown_.clear();
    listed_ = 0;
  }
  /// The sequence listed for address `id` (0 when unlisted).
  uint64_t Seen(uint32_t id) const {
    return id < seen_.size() && seen_[id] != kUnlisted ? seen_[id] : 0;
  }

  std::vector<uint64_t> seen_;  ///< by address id; kUnlisted if absent
  /// Origins not in the table when read, in body order.
  std::vector<std::pair<std::string, uint64_t>> unknown_;
  size_t listed_ = 0;  ///< <v> elements read, unknown origins included
};

/// \brief A delta body read against one catalog (ReadDelta) and consumed
/// by Apply.
struct IncomingDelta {
  std::vector<VersionedRecord> records;
  /// Per record, its origin's address id; filled in by Apply.
  std::vector<uint32_t> origins;
  RemoteVector sender;  ///< the piggybacked sender vector
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
  /// Snapshots for tests and convergence checks; the gossip path reads
  /// the table directly (DigestXml, WriteDelta).
  VersionVector vector() const;
  std::map<std::string, VersionedRecord> records() const;

  // --- local (own-origin) mutations -------------------------------------------

  /// Asserts/updates a fact originated here, stamping the next sequence.
  void UpsertLocal(SyncEntry entry, double ttl_seconds, double now);

  /// Tombstones a fact originated here (graceful withdrawal).
  void TombstoneLocal(const SyncEntry& entry, double now);

  /// Re-stamps the presence heartbeat (and nothing else): the cheap
  /// periodic refresh that keeps this origin's entries alive remotely.
  void BumpPresence(double ttl_seconds, double now);

  /// Re-stamps *all* live own records with fresh sequences. Called on
  /// recovery/rejoin: remote vectors already dominate the old stamps, so
  /// only re-stamped records propagate again.
  void RestampOwn(double now);

  // --- anti-entropy ------------------------------------------------------------

  /// Every record whose version the remote vector has not absorbed, in
  /// ascending Key() order.
  CatalogDelta DeltaSince(const VersionVector& remote) const;

  /// Merges `delta`; returns how many records changed. Fresher versions
  /// win per key; stale or duplicate records are no-ops (idempotence).
  size_t Apply(const CatalogDelta& delta, double now);

  // The wire path: the same operations over the dense RemoteVector.

  /// DigestToXml(vector()), written straight from the table.
  std::string DigestXml() const;
  /// Reads a digest body into `out`.
  Status ReadDigest(std::string_view body, RemoteVector* out) const;
  /// Reads a delta body into `out` (same checks as CatalogDelta::FromXml).
  Status ReadDelta(std::string_view body, IncomingDelta* out) const;
  /// True iff this catalog has absorbed everything `remote` lists.
  bool Dominates(const RemoteVector& remote) const;
  /// Appends DeltaSince(remote).ToXml() to `out` — with vector() attached
  /// as the sender vector when `attach_vector` — and returns its record
  /// count. Writes nothing when no record is missing.
  size_t WriteDelta(const RemoteVector& remote, bool attach_vector,
                    std::string* out) const;
  /// Apply for a read delta. Also fills `delta->origins`, and resolves
  /// the sender-vector origins that the delta's own records introduced.
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
  /// newest record: that one must stay transferable, because version
  /// vectors only grow through records — without it a peer joining after
  /// the purge could never absorb the origin's final sequence and every
  /// digest exchange would chase the gap forever. Returns the number
  /// purged (memory stays bounded at one record per dead origin).
  size_t PurgeTombstones(double now, double min_age);

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The version and liveness fields of one stored record; its origin
  /// is the row that holds it.
  struct Stamp {
    uint64_t sequence = 0;
    double ttl_seconds = 0;
    double stamped_at = 0;
    uint32_t tomb_slot = kNone;  ///< index in tombs_ while a tombstone
    bool tombstone = false;
  };
  /// A stored fact (non-presence record). Lists thread through the pool
  /// by id: a row costs two ids, not two containers.
  struct Fact {
    SyncEntry entry;  ///< entry.entry.area stays empty: see `area`
    Stamp stamp;
    uint32_t area = kNone;  ///< the fact's area, in areas_
    uint32_t origin = kNone;
    uint32_t server = kNone;          ///< row of entry.entry.server
    uint32_t next_of_origin = kNone;  ///< the origin's next fact, Key() order
    uint32_t next_naming = kNone;     ///< next fact naming the same server
  };
  /// One interned address.
  struct Row {
    std::string address;
    /// The vector entry. Also the newest stored sequence: a fresh version
    /// is always stored and only a newer one replaces it.
    uint64_t seq = 0;
    double last_heard = 0;
    double ttl = 0;  ///< max declared TTL over stored records (floor 0)
    /// The presence record. It carries no fact (the codec decodes none),
    /// so its stamp is all there is to store.
    Stamp presence;
    uint32_t first_fact = kNone;    ///< the origin's facts, Key() order
    uint32_t first_naming = kNone;  ///< stored facts naming this address
    bool in_vector = false;  ///< vector() lists it (it has stored records)
    bool expired = false;
    bool has_presence = false;
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
  /// Where a tombstone lives: a fact, or `origin`'s presence slot.
  struct Loc {
    uint32_t origin = kNone;
    uint32_t fact = kNone;  ///< kNone: the presence slot
  };

  /// The first row id in by_address_ not below `address`.
  std::vector<uint32_t>::const_iterator ByAddress(
      std::string_view address) const;
  uint32_t Find(std::string_view address) const;
  uint32_t Intern(std::string_view address);
  /// The id of `row`'s fact stored under `entry`'s key, or kNone.
  uint32_t FindFact(const Row& row, const SyncEntry& entry) const;
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
  /// Stamps a new own sequence into the self row.
  uint64_t NextOwnSequence(double now);
  /// Applies one incoming record of row `origin`; true when it changed.
  bool ApplyRecord(const VersionedRecord& in, uint32_t origin, double now);
  /// Stores `stamp` as row `origin`'s presence record.
  void PutPresence(uint32_t origin, Stamp stamp);
  /// Stores a fact of row `origin` over `fact`, or (kNone) as a new one.
  /// Returns its id.
  uint32_t PutFact(uint32_t origin, uint32_t fact, SyncEntry entry,
                   Stamp stamp);
  /// Overwrites `*slot` (a stored record when `replaced`) with `stamp`,
  /// keeping tombs_ and the row's TTL current.
  void SetStamp(Loc loc, Stamp* slot, bool replaced, Stamp stamp);
  /// Removes a purged tombstone.
  void Remove(Loc loc);
  void MarkTombstone(Loc loc, Stamp* stamp);
  void UnmarkTombstone(Stamp* stamp);
  void RecomputeTtl(Row* row) const;
  /// Calls fn(row, fact id, stamp) for every record newer than `remote`
  /// lists, in ascending Key() order; the id is kNone for presence.
  template <typename Fn>
  void ForEachMissing(const RemoteVector& remote, Fn&& fn) const;
  void EmitVector(xml::TokenWriter* w) const;
  void ReadInto(std::string_view origin, uint64_t seq,
                RemoteVector* out) const;

  /// Withdraws the projection of `fact` (stored under the key an incoming
  /// `entry` is about to replace) when its fact payload differs — the key
  /// covers identity fields only, e.g. delay_minutes can change.
  void RetireReplacedProjection(uint32_t origin, uint32_t fact,
                                const SyncEntry& entry, bool tombstone);
  // Project and Unproject take a fact's cells apart from its entry: a
  // stored fact keeps its area in areas_.
  /// Applies one fact to the projection catalog.
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
  // Deques: a catalog per peer holds a row per origin ever heard of, so
  // doubling growth would strand up to half of every table.
  std::deque<Row> table_;
  uint32_t self_id_ = kNone;
  std::vector<uint32_t> by_address_;  ///< row ids, ascending address
  std::vector<uint32_t> by_key_;      ///< row ids, ascending address + '|'
  std::deque<Fact> facts_;            ///< pool; free ids in free_facts_
  std::vector<uint32_t> free_facts_;
  std::deque<Area> areas_;            ///< pool; free ids in free_areas_
  std::vector<uint32_t> free_areas_;
  std::vector<uint32_t> area_order_;  ///< live area ids, ascending text
  std::vector<Loc> tombs_;            ///< every stored tombstone
};

}  // namespace mqp::catalog
