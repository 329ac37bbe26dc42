// In-memory XML tree: the data model for MQPs and for all data items.
//
// The paper serializes query plans and partial results as XML; this module
// supplies the DOM that the rest of the library builds on. Only the XML
// subset that the system needs is modeled: elements, attributes and text.
// (Comments, PIs and CDATA are accepted by the TokenReader but not retained.)
#pragma once

#include <cstdint>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mqp::xml {

enum class NodeType { kElement, kText };

namespace internal {
/// Bumps the process-wide node-construction counter (see DomNodesBuilt).
void CountNodeBuilt();
/// Bumps the process-wide mutation epoch (see DomMutationEpoch).
void BumpMutationEpoch();
}  // namespace internal

/// \brief Process-wide monotonic count of Node objects ever constructed
/// (elements and text, including clones). The streaming wire codec exists
/// to keep this flat on routing hops: tests and benches snapshot it around
/// a code path and assert on the delta (the dom_nodes_built and
/// hop_dom_nodes_built counters are fed from it).
uint64_t DomNodesBuilt();

/// \brief Process-wide cache-invalidation epoch. Per-node caches (the
/// lazy SerializedSize and StructuralHash caches) are tagged with the
/// epoch they were computed in and are valid only while it has not
/// moved. The caching walks mark every node of the cached subtree, and
/// only mutations of *marked* nodes bump the epoch — so building fresh
/// trees (wire decode, result materialization) never flushes the caches
/// of stored immutable items, while any mutation that could touch a
/// cached subtree flushes everything (coarse but sound: a node can only
/// enter a cached subtree via AddChild or mutable_children on a marked
/// parent, which bumps).
uint64_t DomMutationEpoch();

/// \brief One node of an XML tree (element or text). Elements own their
/// children; attribute order is preserved.
class Node {
 public:
  /// Creates an element node `<name>`.
  static std::unique_ptr<Node> Element(std::string name);

  /// Creates a text node.
  static std::unique_ptr<Node> Text(std::string text);

  /// Creates an element with a single text child: `<name>text</name>`.
  static std::unique_ptr<Node> ElementWithText(std::string name,
                                               std::string text);

  NodeType type() const { return type_; }
  bool is_element() const { return type_ == NodeType::kElement; }
  bool is_text() const { return type_ == NodeType::kText; }

  /// Element tag name (empty for text nodes).
  const std::string& name() const { return name_; }

  /// Text content (text nodes only).
  const std::string& text() const { return text_; }
  void set_text(std::string text) {
    if (cache_marked_.load(std::memory_order_relaxed)) {
      internal::BumpMutationEpoch();
    }
    text_ = std::move(text);
  }

  // --- attributes -----------------------------------------------------------

  /// Sets (or replaces) attribute `key`.
  void SetAttr(std::string_view key, std::string value);

  /// Returns the attribute value, or nullopt if absent.
  std::optional<std::string_view> Attr(std::string_view key) const;

  /// Attribute value or `fallback` when absent.
  std::string AttrOr(std::string_view key, std::string fallback) const;

  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  // --- children -------------------------------------------------------------

  /// Appends `child` and returns a raw pointer to it (owned by this node).
  Node* AddChild(std::unique_ptr<Node> child);

  /// Appends a new element child `<name>` and returns it.
  Node* AddElement(std::string name);

  /// Appends a new element child `<name>text</name>` and returns it.
  Node* AddElementWithText(std::string name, std::string text);

  /// Appends a text child.
  Node* AddText(std::string text);

  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  std::vector<std::unique_ptr<Node>>& mutable_children() {
    // Conservative: the caller may mutate freely (bump only matters — and
    // only fires — when this node sits inside a cached subtree).
    if (cache_marked_.load(std::memory_order_relaxed)) {
      internal::BumpMutationEpoch();
    }
    return children_;
  }

  /// First element child named `name`, or nullptr.
  const Node* Child(std::string_view name) const;
  Node* Child(std::string_view name);

  /// All element children named `name` (or all element children if
  /// `name == "*"`).
  std::vector<const Node*> Children(std::string_view name) const;

  /// Concatenated text of the first child element `name`, or "" if absent.
  std::string ChildText(std::string_view name) const;

  /// Concatenated text of all descendant text nodes.
  std::string InnerText() const;

  /// Deep copy.
  std::unique_ptr<Node> Clone() const;

  /// Structural equality (type, name, text, attrs incl. order, children
  /// recursively). The companion of StructuralHash: two nodes with equal
  /// hashes are verified with this before being treated as duplicates.
  bool StructurallyEquals(const Node& other) const;

  /// Alias retained for existing call sites.
  bool Equals(const Node& other) const { return StructurallyEquals(other); }

 private:
  friend size_t SerializedSize(const Node& node);   // lazy size cache
  friend uint64_t StructuralHash(const Node& node); // lazy hash cache

  explicit Node(NodeType type) : type_(type) { internal::CountNodeBuilt(); }

  NodeType type_;
  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
  // Lazy caches, valid while their epoch == DomMutationEpoch().
  // 0 = never computed (the live epoch starts at 1). cache_marked_ is set
  // on every node a caching walk visits; mutators bump the global epoch
  // only for marked nodes, so fresh tree construction leaves the caches
  // of stored items untouched.
  //
  // Thread safety (DESIGN.md §8): a tree is either peer-confined (one
  // thread reads and mutates it, serialized by the transport) or a
  // shared immutable item (many threads read, nobody mutates). The
  // caches must therefore survive concurrent *fills* on shared items:
  // the value is stored first, then the epoch is published with release
  // ordering, and readers load the epoch with acquire before trusting
  // the value. Racing fills write identical bytes (hash and size are
  // pure functions of the immutable tree), so whichever store lands
  // last is as good as the first.
  mutable std::atomic<uint64_t> size_epoch_{0};  // serialized size
  mutable std::atomic<size_t> cached_size_{0};   // (see writer.cc)
  mutable std::atomic<uint64_t> hash_epoch_{0};  // structural hash
  mutable std::atomic<uint64_t> cached_hash_{0};
  mutable std::atomic<bool> cache_marked_{false};
};

/// \brief Deep structural hash over (type, name, text, attrs incl. order,
/// children recursively). Equal trees hash equal; the engine's set
/// semantics (distinct union, difference) key hash tables on it instead
/// of serialized strings, re-verifying candidate matches with
/// Node::StructurallyEquals. Cached per subtree under the DOM mutation
/// epoch (the SerializedSize pattern), so re-hashing a shared immutable
/// item is O(1) after the first computation.
uint64_t StructuralHash(const Node& node);

}  // namespace mqp::xml
