#include "algebra/walk.h"

#include <cassert>
#include <memory>

namespace mqp::algebra {

namespace {

// This thread's tables, one per nesting level; the first `t_depth` are in
// use by live NodeMarks.
thread_local std::vector<std::unique_ptr<internal::MarkTable>> t_tables;
thread_local size_t t_depth = 0;

constexpr size_t kInitialSlots = 64;

}  // namespace

void internal::MarkTable::Grow() {
  std::vector<Slot> old(slots.size() * 2);
  old.swap(slots);
  live = 0;
  bool fresh = false;
  for (const Slot& s : old) {
    if (s.gen == gen) Find(s.key, &fresh) = s.value;
  }
}

NodeMarks::NodeMarks() : depth_(t_depth) {
  if (t_depth == t_tables.size()) {
    t_tables.push_back(std::make_unique<internal::MarkTable>());
    t_tables.back()->slots.resize(kInitialSlots);
  }
  table_ = t_tables[t_depth++].get();
  table_->live = 0;
  if (++table_->gen == 0) {
    // Generation wrapped: slots stamped long ago could read as live.
    for (auto& s : table_->slots) s.gen = 0;
    table_->gen = 1;
  }
}

NodeMarks::~NodeMarks() {
  assert(t_depth == depth_ + 1 && "NodeMarks must end in LIFO order");
  t_depth = depth_;
}

}  // namespace mqp::algebra
