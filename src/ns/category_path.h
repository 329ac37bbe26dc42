// CategoryPath: a (possibly empty) path in one categorization hierarchy.
//
// The empty path is the all-inclusive "top" category, written "*"
// (paper §3.1). "USA/OR/Portland" is a city-level category whose parents
// are "USA/OR" and "USA".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mqp::ns {

/// \brief A path of category labels within one dimension.
class CategoryPath {
 public:
  /// The top ("*") category.
  CategoryPath() = default;

  explicit CategoryPath(std::vector<std::string> segments)
      : segments_(std::move(segments)) {}

  /// Parses "USA/OR/Portland" (slash form) or "USA.OR.Portland" (dotted URN
  /// form). "*" or "" parse to the top category. Empty segments are errors.
  static Result<CategoryPath> Parse(std::string_view text);

  /// True for the all-inclusive top category.
  bool IsTop() const { return segments_.empty(); }

  size_t depth() const { return segments_.size(); }
  const std::vector<std::string>& segments() const { return segments_; }

  /// The final (most specific) label; precondition: !IsTop().
  const std::string& leaf() const { return segments_.back(); }

  /// Extends this path with one more label.
  CategoryPath Child(std::string label) const;

  /// True if this category is an ancestor of, or equal to, `other` —
  /// i.e. this path is a prefix of `other`. Top is an ancestor of all.
  bool IsAncestorOrSame(const CategoryPath& other) const;

  /// True if one path is a prefix of the other (the categories are on one
  /// root-to-leaf line, so their extents intersect).
  bool Comparable(const CategoryPath& other) const {
    return IsAncestorOrSame(other) || other.IsAncestorOrSame(*this);
  }

  /// "USA/OR/Portland", or "*" for top. The canonical string is built
  /// once and cached (paths are immutable), so repeated wire/gossip
  /// encoding of catalog entries never re-joins segments. Temporaries
  /// get a copy instead of a reference into a dying object.
  const std::string& ToString() const&;
  std::string ToString() const&& { return ToString(); }

  /// Dotted URN form: "USA.OR.Portland", or "*" for top. Cached likewise.
  const std::string& ToUrnString() const&;
  std::string ToUrnString() const&& { return ToUrnString(); }

  bool operator==(const CategoryPath& other) const {
    return segments_ == other.segments_;
  }
  bool operator!=(const CategoryPath& other) const {
    return !(*this == other);
  }
  /// Lexicographic order (for use in ordered containers).
  bool operator<(const CategoryPath& other) const {
    return segments_ < other.segments_;
  }

 private:
  std::vector<std::string> segments_;
  // Lazily-built canonical forms; empty means "not built yet" (top's
  // canonical form is "*", never the empty string). Excluded from
  // comparison; copied along with the path, which keeps the cache warm
  // through Intersect/Parent/assignment chains.
  mutable std::string slash_form_;
  mutable std::string urn_form_;
};

}  // namespace mqp::ns
