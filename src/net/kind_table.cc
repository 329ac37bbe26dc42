#include "net/kind_table.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

namespace mqp::net {

namespace {

struct SvHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct SvEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

struct Table {
  // Concurrent senders intern/look up under this lock: shared for the
  // (overwhelmingly common) hit path, exclusive only on first intern.
  mutable std::shared_mutex mu;
  std::deque<std::string> names;  // KindId → name; a deque so the strings
                                  // (and views into them) never move
  std::unordered_map<std::string, KindId, SvHash, SvEq> index;
  std::vector<KindId> sorted;      // ids by name; rebuilt lazily
  bool sorted_valid = true;
};

Table& GlobalTable() {
  static Table* table = new Table();  // leaked: outlives all NetStats
  return *table;
}

}  // namespace

KindId InternKind(std::string_view kind) {
  Table& t = GlobalTable();
  {
    std::shared_lock<std::shared_mutex> lk(t.mu);
    auto it = t.index.find(kind);
    if (it != t.index.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lk(t.mu);
  // Re-check: another thread may have interned between the locks.
  auto it = t.index.find(kind);
  if (it != t.index.end()) return it->second;
  const KindId id = static_cast<KindId>(t.names.size());
  t.names.emplace_back(kind);
  t.index.emplace(t.names.back(), id);
  t.sorted_valid = false;
  return id;
}

KindId FindKind(std::string_view kind) {
  const Table& t = GlobalTable();
  std::shared_lock<std::shared_mutex> lk(t.mu);
  auto it = t.index.find(kind);
  return it == t.index.end() ? kNoKind : it->second;
}

std::string_view KindNameOf(KindId id) {
  const Table& t = GlobalTable();
  std::shared_lock<std::shared_mutex> lk(t.mu);
  if (id >= t.names.size()) return {};
  // The view outlives the lock safely: deque slots never move and names
  // are never erased.
  return t.names[id];
}

std::vector<KindId> SortedKindIds() {
  Table& t = GlobalTable();
  std::unique_lock<std::shared_mutex> lk(t.mu);
  if (!t.sorted_valid) {
    t.sorted.resize(t.names.size());
    for (size_t i = 0; i < t.sorted.size(); ++i) {
      t.sorted[i] = static_cast<KindId>(i);
    }
    std::sort(t.sorted.begin(), t.sorted.end(),
              [&t](KindId a, KindId b) { return t.names[a] < t.names[b]; });
    t.sorted_valid = true;
  }
  return t.sorted;
}

}  // namespace mqp::net
