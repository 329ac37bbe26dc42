// Plan DAG walks without per-walk allocation (DESIGN.md §5, Plan walks).
//
// Every walk over a plan's operator DAG needs to know which nodes it has
// already seen, because sub-plans may be shared. NodeMarks is that
// visited set: a pointer-keyed open-addressing table, one per nesting
// level, reused across walks on the same thread and emptied by bumping a
// generation, so a walk over a plan no larger than earlier ones
// allocates nothing. ForEachNode / ForEachNodePostOrder are the two walk
// orders built on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algebra/plan.h"

namespace mqp::algebra {

namespace internal {

/// One reusable visited table (see NodeMarks). Slots whose generation is
/// not the table's current one are empty.
struct MarkTable {
  struct Slot {
    const PlanNode* key = nullptr;
    uint32_t gen = 0;
    int value = 0;
  };
  std::vector<Slot> slots;  // power-of-two size
  uint32_t gen = 0;
  size_t live = 0;

  static size_t Hash(const PlanNode* key) {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(key) >> 4) * 0x9e3779b97f4a7c15ull >>
        32);
  }

  /// `key`'s slot value; inserts it with value 0 (and sets *fresh) when
  /// absent.
  int& Find(const PlanNode* key, bool* fresh) {
    const size_t mask = slots.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots[i];
      if (s.gen != gen) {
        if (2 * (live + 1) > slots.size()) {
          Grow();
          return Find(key, fresh);
        }
        s = {key, gen, 0};
        ++live;
        *fresh = true;
        return s.value;
      }
      if (s.key == key) {
        *fresh = false;
        return s.value;
      }
    }
  }

  void Grow();
};

}  // namespace internal

/// \brief The nodes one plan walk has seen, each with an int the walk may
/// use (reference counts, serializer ids).
///
/// Constructing one takes the calling thread's next free table; a walk
/// started from inside another walk's callback (EliminateOrNodes asks
/// ChooseOrBranch, which counts leaves) therefore gets its own table and
/// leaves the outer walk's marks alone. Tables are per thread, so walks
/// on different peers' threads share nothing, and a const walk writes no
/// node. NodeMarks on one thread must be destroyed in reverse order of
/// construction, which holding them as locals (or members of locals)
/// guarantees.
class NodeMarks {
 public:
  NodeMarks();
  ~NodeMarks();
  NodeMarks(const NodeMarks&) = delete;
  NodeMarks& operator=(const NodeMarks&) = delete;

  /// Marks `node`; true when this walk had not marked it yet.
  bool Insert(const PlanNode* node) {
    bool fresh = false;
    table_->Find(node, &fresh);
    return fresh;
  }

  /// `node`'s value, marking it with value 0 first if needed. The
  /// reference is valid until the next node is marked (the table may
  /// grow).
  int& operator[](const PlanNode* node) {
    bool fresh = false;
    return table_->Find(node, &fresh);
  }

 private:
  internal::MarkTable* table_;
  size_t depth_;
};

namespace internal {

template <typename Node, typename Fn>
void PreOrder(Node* node, NodeMarks* marks, Fn& fn) {
  if (!marks->Insert(node)) return;
  fn(node);
  for (const auto& c : node->children()) PreOrder<Node>(c.get(), marks, fn);
}

template <typename Fn>
void PostOrder(PlanNode* node, NodeMarks* marks, Fn& fn) {
  if (!marks->Insert(node)) return;
  for (const auto& c : node->children()) PostOrder(c.get(), marks, fn);
  fn(node);
}

}  // namespace internal

/// Calls `fn(node)` once for every distinct node of the DAG under `root`,
/// parents before children and children left to right; a shared node is
/// visited where it is first reached. `Node` is PlanNode or const
/// PlanNode. `fn` must not change the children of the nodes it is given.
template <typename Node, typename Fn>
void ForEachNode(Node* root, Fn&& fn) {
  NodeMarks marks;
  internal::PreOrder<Node>(root, &marks, fn);
}

/// Calls `fn(node)` once for every distinct node of the DAG under `root`,
/// children first. `fn` may morph the node it is given (its new children
/// are not visited) and may start walks of its own.
template <typename Fn>
void ForEachNodePostOrder(PlanNode* root, Fn&& fn) {
  NodeMarks marks;
  internal::PostOrder(root, &marks, fn);
}

}  // namespace mqp::algebra
