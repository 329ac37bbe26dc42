// Synthetic P2P garage-sale workload (paper §2's running example).
//
// Generates sellers with interest cells drawn from the Location ×
// Merchandise namespace and item bundles shaped like the paper describes:
// "item name, seller location, description, condition, images, quantity,
// price" (images abbreviated to a reference).
#pragma once

#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/rng.h"
#include "ns/hierarchy.h"
#include "ns/interest.h"

namespace mqp::workload {

/// \brief One synthetic seller: a name and the interest cell (most
/// specific location × merchandise category) its items live in.
struct Seller {
  std::string name;
  ns::InterestCell cell;
};

/// \brief Garage-sale data generator. Deterministic given the seed.
class GarageSaleGenerator {
 public:
  explicit GarageSaleGenerator(uint64_t seed = 42);

  const ns::MultiHierarchy& hierarchy() const { return ns_; }

  /// Draws `n` sellers; each picks a random leaf location and a random
  /// merchandise category (Zipf-skewed so some categories are hot).
  /// Names number on across calls ("seller-0", "seller-1", ...), so no
  /// two sellers of one generator share a name.
  std::vector<Seller> MakeSellers(size_t n);

  /// Generates `count` items for one seller. Every item carries:
  /// name, category (most-specific merchandise path), location (the
  /// seller's city path), price, condition, quantity and a description.
  algebra::ItemSet MakeItems(const Seller& seller, size_t count);

  /// Number of items of `items` that fall inside `area` (ground truth for
  /// recall measurements).
  static size_t CountInArea(const algebra::ItemSet& items,
                            const ns::InterestArea& area);

  /// True if the item's (location, category) coordinates fall in `area`.
  static bool ItemInArea(const xml::Node& item, const ns::InterestArea& area);

 private:
  Rng rng_;
  ns::MultiHierarchy ns_;
  std::vector<ns::CategoryPath> locations_;   // leaf cities
  std::vector<ns::CategoryPath> categories_;  // leaf merchandise
  size_t next_seller_ = 0;                    // number of the next name
};

}  // namespace mqp::workload
