#include "workload/garage_sale.h"

#include "common/strings.h"

namespace mqp::workload {

namespace {

const char* const kAdjectives[] = {"vintage", "sturdy", "mint",
                                   "worn",    "rare",   "plain"};
const char* const kNouns[] = {"armchair", "table",  "amplifier", "record",
                              "putter",   "jacket", "novel",     "lamp"};
const char* const kConditions[] = {"new", "like-new", "good", "fair",
                                   "poor"};

}  // namespace

GarageSaleGenerator::GarageSaleGenerator(uint64_t seed)
    : rng_(seed), ns_(ns::MakeGarageSaleNamespace()) {
  locations_ = ns_.dimension(0).Leaves();
  categories_ = ns_.dimension(1).Leaves();
}

std::vector<Seller> GarageSaleGenerator::MakeSellers(size_t n) {
  std::vector<Seller> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Seller s;
    s.name = "seller-" + std::to_string(next_seller_++);
    const auto& loc = locations_[rng_.NextBelow(locations_.size())];
    // Zipf-skewed category choice: some categories are much hotter.
    const auto& cat = categories_[rng_.NextZipf(categories_.size(), 0.8)];
    s.cell = ns::InterestCell({loc, cat});
    out.push_back(std::move(s));
  }
  return out;
}

algebra::ItemSet GarageSaleGenerator::MakeItems(const Seller& seller,
                                                size_t count) {
  algebra::ItemSet out;
  out.reserve(count);
  const std::string location = seller.cell.coord(0).ToString();
  const std::string category = seller.cell.coord(1).ToString();
  for (size_t i = 0; i < count; ++i) {
    auto item = xml::Node::Element("item");
    const std::string adj = kAdjectives[rng_.NextBelow(6)];
    const std::string noun = kNouns[rng_.NextBelow(8)];
    item->AddElementWithText("name", adj + " " + noun);
    item->AddElementWithText("category", category);
    item->AddElementWithText("location", location);
    item->AddElementWithText(
        "price", std::to_string(1 + rng_.NextBelow(200)) + "." +
                     std::to_string(rng_.NextBelow(10)) +
                     std::to_string(rng_.NextBelow(10)));
    item->AddElementWithText("condition",
                             kConditions[rng_.NextBelow(5)]);
    item->AddElementWithText("quantity",
                             std::to_string(1 + rng_.NextBelow(4)));
    item->AddElementWithText("seller", seller.name);
    item->AddElementWithText("description",
                             "a " + adj + " " + noun + " from " + location);
    item->AddElementWithText("image", "img://" + seller.name + "/" +
                                          std::to_string(i));
    out.push_back(algebra::Item(item.release()));
  }
  return out;
}

bool GarageSaleGenerator::ItemInArea(const xml::Node& item,
                                     const ns::InterestArea& area) {
  auto loc = ns::CategoryPath::Parse(item.ChildText("location"));
  auto cat = ns::CategoryPath::Parse(item.ChildText("category"));
  if (!loc.ok() || !cat.ok()) return false;
  ns::InterestCell cell({*loc, *cat});
  for (const auto& c : area.cells()) {
    if (c.Covers(cell)) return true;
  }
  return false;
}

size_t GarageSaleGenerator::CountInArea(const algebra::ItemSet& items,
                                        const ns::InterestArea& area) {
  size_t n = 0;
  for (const auto& item : items) {
    if (ItemInArea(*item, area)) ++n;
  }
  return n;
}

}  // namespace mqp::workload
