// Equi-width field histograms — the richest of the §5.1 statistics a
// server can attach to a sub-plan it declines to evaluate ("S could
// annotate B with its cardinality, the unique cardinality of the join
// column, or even a histogram"). The cost model uses them for selectivity
// estimation instead of fixed heuristics.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "xml/node.h"

namespace mqp::xml {
class TokenReader;
class TokenWriter;
}  // namespace mqp::xml

namespace mqp::algebra {

/// One data item: an immutable XML element (defined here so both the plan
/// and histogram headers can share it).
using Item = std::shared_ptr<const xml::Node>;
/// A bag of items — the result of evaluating a (sub-)plan.
using ItemSet = std::vector<Item>;

/// \brief Equi-width histogram over a numeric item field.
struct FieldHistogram {
  std::string field;
  double min = 0;
  double max = 0;
  std::vector<uint64_t> counts;  ///< bucket occupancy, equi-width
  uint64_t total = 0;            ///< numeric values histogrammed

  /// Builds a histogram from `items`; nullopt when fewer than two items
  /// carry a numeric value for `field`.
  static std::optional<FieldHistogram> Build(const ItemSet& items,
                                             const std::string& field,
                                             size_t buckets = 8);

  /// Estimated fraction of values strictly below `v` (linear
  /// interpolation within the containing bucket).
  double FractionBelow(double v) const;

  /// Estimated fraction of values equal to `v` (bucket mass spread evenly
  /// over the bucket's width).
  double FractionEquals(double v) const;

  /// Emits a <histogram> element without building a DOM.
  void EmitTokens(xml::TokenWriter* w) const;

  /// Parses a <histogram> element produced by EmitTokens. Precondition:
  /// current token is the <histogram> kStartElement; returns with its
  /// kEndElement consumed.
  static Result<FieldHistogram> FromTokens(xml::TokenReader* r);

  bool operator==(const FieldHistogram& other) const = default;
};

}  // namespace mqp::algebra
