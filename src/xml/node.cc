#include "xml/node.h"

#include <atomic>

namespace mqp::xml {

namespace {
// The library is single-threaded *per peer*, not per process: under
// runtime::ThreadedRuntime / runtime::TcpTransport many peers run
// concurrently, each confined to one handler thread at a time, while
// shared immutable items are read (and lazily hashed) cross-thread
// (DESIGN.md §8). So the build counter is thread-local (handlers
// snapshot deltas on their own thread) and the mutation epoch — a
// process-wide cache-invalidation stamp — is a relaxed atomic: bumps
// and reads need no ordering beyond the cache fields' own
// acquire/release publication (see node.h).
thread_local uint64_t g_dom_nodes_built = 0;
std::atomic<uint64_t> g_dom_mutation_epoch{1};  // 1: zero-init caches stale
}  // namespace

namespace internal {
void CountNodeBuilt() { ++g_dom_nodes_built; }
void BumpMutationEpoch() {
  g_dom_mutation_epoch.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal

uint64_t DomNodesBuilt() { return g_dom_nodes_built; }

uint64_t DomMutationEpoch() {
  return g_dom_mutation_epoch.load(std::memory_order_relaxed);
}

std::unique_ptr<Node> Node::Element(std::string name) {
  auto n = std::unique_ptr<Node>(new Node(NodeType::kElement));
  n->name_ = std::move(name);
  return n;
}

std::unique_ptr<Node> Node::Text(std::string text) {
  auto n = std::unique_ptr<Node>(new Node(NodeType::kText));
  n->text_ = std::move(text);
  return n;
}

std::unique_ptr<Node> Node::ElementWithText(std::string name,
                                            std::string text) {
  auto n = Element(std::move(name));
  n->AddText(std::move(text));
  return n;
}

void Node::SetAttr(std::string_view key, std::string value) {
  if (cache_marked_.load(std::memory_order_relaxed)) {
    internal::BumpMutationEpoch();
  }
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs_.emplace_back(std::string(key), std::move(value));
}

std::optional<std::string_view> Node::Attr(std::string_view key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return std::string_view(v);
  }
  return std::nullopt;
}

std::string Node::AttrOr(std::string_view key, std::string fallback) const {
  auto v = Attr(key);
  return v ? std::string(*v) : std::move(fallback);
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  if (cache_marked_.load(std::memory_order_relaxed)) {
    internal::BumpMutationEpoch();
  }
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::AddElement(std::string name) {
  return AddChild(Element(std::move(name)));
}

Node* Node::AddElementWithText(std::string name, std::string text) {
  return AddChild(ElementWithText(std::move(name), std::move(text)));
}

Node* Node::AddText(std::string text) {
  return AddChild(Text(std::move(text)));
}

const Node* Node::Child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->is_element() && c->name_ == name) return c.get();
  }
  return nullptr;
}

Node* Node::Child(std::string_view name) {
  return const_cast<Node*>(static_cast<const Node*>(this)->Child(name));
}

std::vector<const Node*> Node::Children(std::string_view name) const {
  std::vector<const Node*> out;
  for (const auto& c : children_) {
    if (c->is_element() && (name == "*" || c->name_ == name)) {
      out.push_back(c.get());
    }
  }
  return out;
}

std::string Node::ChildText(std::string_view name) const {
  const Node* c = Child(name);
  return c ? c->InnerText() : std::string();
}

std::string Node::InnerText() const {
  if (is_text()) return text_;
  std::string out;
  for (const auto& c : children_) {
    out += c->InnerText();
  }
  return out;
}

std::unique_ptr<Node> Node::Clone() const {
  auto n = std::unique_ptr<Node>(new Node(type_));
  n->name_ = name_;
  n->text_ = text_;
  n->attrs_ = attrs_;
  n->children_.reserve(children_.size());
  for (const auto& c : children_) {
    n->children_.push_back(c->Clone());
  }
  return n;
}

bool Node::StructurallyEquals(const Node& other) const {
  if (this == &other) return true;  // shared items compare constantly
  // When both hashes are cached and differ, the trees cannot be equal.
  {
    const uint64_t epoch = DomMutationEpoch();
    if (hash_epoch_.load(std::memory_order_acquire) == epoch &&
        other.hash_epoch_.load(std::memory_order_acquire) == epoch &&
        cached_hash_.load(std::memory_order_relaxed) !=
            other.cached_hash_.load(std::memory_order_relaxed)) {
      return false;
    }
  }
  if (type_ != other.type_ || name_ != other.name_ || text_ != other.text_ ||
      attrs_ != other.attrs_ || children_.size() != other.children_.size()) {
    return false;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->StructurallyEquals(*other.children_[i])) return false;
  }
  return true;
}

namespace {

// FNV-1a over bytes, with single-byte tags separating the fields so
// ("ab", "c") and ("a", "bc") cannot collide trivially.
inline uint64_t Fnv(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline uint64_t FnvTag(uint64_t h, unsigned char tag) {
  h ^= tag;
  h *= 0x100000001b3ull;
  return h;
}

inline uint64_t MixHash(uint64_t h, uint64_t v) {
  // splitmix64-style finalizer folded into the running hash: each child's
  // (cached) subtree hash enters as one well-stirred word.
  v += 0x9e3779b97f4a7c15ull;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return (h ^ (v ^ (v >> 31))) * 0x100000001b3ull;
}

}  // namespace

uint64_t StructuralHash(const Node& node) {
  const uint64_t epoch = DomMutationEpoch();
  if (node.hash_epoch_.load(std::memory_order_acquire) == epoch) {
    return node.cached_hash_.load(std::memory_order_relaxed);
  }
  uint64_t h = 0xcbf29ce484222325ull;
  h = FnvTag(h, node.is_element() ? 1 : 2);
  h = Fnv(h, node.name());
  h = Fnv(h, node.text());
  for (const auto& [k, v] : node.attrs()) {
    h = FnvTag(h, 3);
    h = Fnv(h, k);
    h = FnvTag(h, 4);
    h = Fnv(h, v);
  }
  for (const auto& c : node.children()) {
    h = MixHash(h, StructuralHash(*c));  // children hit their own caches
  }
  // Value first, epoch last (release): a reader that sees the fresh
  // epoch is guaranteed to see the hash it stamps.
  node.cached_hash_.store(h, std::memory_order_relaxed);
  node.hash_epoch_.store(epoch, std::memory_order_release);
  node.cache_marked_.store(true, std::memory_order_relaxed);  // mutations bump
  return h;
}

}  // namespace mqp::xml
