// Hierarchy: one categorization dimension (a rooted tree of categories).
// MultiHierarchy: the multi-hierarchic namespace — an ordered list of
// dimensions (paper §3.1). Category servers (§3.5) serve Hierarchy data.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ns/category_path.h"
#include "ns/path_interner.h"

namespace mqp::ns {

/// \brief A named categorization hierarchy (dimension), e.g. "Location".
///
/// Stores the category tree explicitly so category servers can answer
/// structural queries ("what are the immediate subcategories of
/// Furniture?") and validate/approximate paths (§3.5). The tree is a
/// PathInterner, so every known category has a dense PathId and an
/// Euler-tour interval: ancestor tests against the hierarchy are integer
/// comparisons, not per-segment string walks.
class Hierarchy {
 public:
  explicit Hierarchy(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds `path` and all of its ancestors. Top always exists.
  void Add(const CategoryPath& path) { interner_.Intern(path); }

  /// Convenience: Add(Parse(text)); ignores parse errors in release use,
  /// returns them for checking.
  Status AddPath(std::string_view text);

  /// True if `path` is a known category (top is always known).
  bool Contains(const CategoryPath& path) const {
    return interner_.Lookup(path) != kNoPathId;
  }

  /// Immediate subcategories of `path` (empty if unknown/leaf).
  std::vector<CategoryPath> ChildrenOf(const CategoryPath& path) const;

  /// All categories, top first, in depth-first order.
  std::vector<CategoryPath> AllCategories() const;

  /// Categories with no children.
  std::vector<CategoryPath> Leaves() const;

  /// Deepest known prefix of `path` (paper §3.5: a reference to an unknown
  /// node can be approximated by an ancestor, losing precision but not
  /// recall). Returns top if nothing matches.
  CategoryPath Approximate(const CategoryPath& path) const {
    return interner_.PathOf(interner_.DeepestKnownPrefix(path));
  }

  size_t size() const { return interner_.size(); }

  /// Bumps whenever a category is added; derived caches (e.g. the
  /// catalog's binding cache) key their validity off this.
  uint64_t version() const { return interner_.version(); }

  /// The interned id space backing this hierarchy.
  const PathInterner& interner() const { return interner_; }

  /// Pre-fills the interner's lazy caches so a hierarchy shared read-only
  /// across peers can be probed from many threads (DESIGN.md §8). Call
  /// while still single-threaded, after the last Add.
  void Warm() const { interner_.Warm(); }

 private:
  void Collect(PathId id, bool leaves_only,
               std::vector<CategoryPath>* out) const;

  std::string name_;
  PathInterner interner_;
};

/// \brief The multi-hierarchic namespace: an ordered set of dimensions.
///
/// Interest cells/areas are expressed as one CategoryPath per dimension,
/// in this object's dimension order.
class MultiHierarchy {
 public:
  /// Adds a dimension; returns its index.
  size_t AddDimension(std::string name);

  size_t dimension_count() const { return dims_.size(); }

  const Hierarchy& dimension(size_t i) const { return *dims_[i]; }
  Hierarchy& dimension(size_t i) { return *dims_[i]; }

  /// Index of the dimension named `name`, or error.
  Result<size_t> DimensionIndex(std::string_view name) const;

  /// Monotonic: grows whenever any dimension gains a category or a
  /// dimension is added.
  uint64_t version() const;

  /// Warms every dimension (see Hierarchy::Warm).
  void Warm() const {
    for (const auto& d : dims_) d->Warm();
  }

 private:
  std::vector<std::unique_ptr<Hierarchy>> dims_;
};

/// \brief Builds the two-dimensional garage-sale namespace used throughout
/// the paper (Location country/state/city × Merchandise categories,
/// Figure 5).
MultiHierarchy MakeGarageSaleNamespace();

/// \brief Builds the Figure-1 gene-expression namespace
/// (Organism taxonomy × CellType hierarchy).
MultiHierarchy MakeGeneExpressionNamespace();

}  // namespace mqp::ns
