#include "ns/hierarchy.h"

namespace mqp::ns {

Status Hierarchy::AddPath(std::string_view text) {
  MQP_ASSIGN_OR_RETURN(auto path, CategoryPath::Parse(text));
  Add(path);
  return Status::OK();
}

std::vector<CategoryPath> Hierarchy::ChildrenOf(
    const CategoryPath& path) const {
  std::vector<CategoryPath> out;
  const PathId id = interner_.Lookup(path);
  if (id == kNoPathId) return out;
  for (PathId child : interner_.ChildrenOf(id)) {
    out.push_back(interner_.PathOf(child));
  }
  return out;
}

void Hierarchy::Collect(PathId id, bool leaves_only,
                        std::vector<CategoryPath>* out) const {
  if (!leaves_only || interner_.IsLeaf(id)) {
    out->push_back(interner_.PathOf(id));
  }
  for (PathId child : interner_.ChildrenOf(id)) {
    Collect(child, leaves_only, out);
  }
}

std::vector<CategoryPath> Hierarchy::AllCategories() const {
  std::vector<CategoryPath> out;
  Collect(PathInterner::kTopId, /*leaves_only=*/false, &out);
  return out;
}

std::vector<CategoryPath> Hierarchy::Leaves() const {
  std::vector<CategoryPath> out;
  Collect(PathInterner::kTopId, /*leaves_only=*/true, &out);
  return out;
}

size_t MultiHierarchy::AddDimension(std::string name) {
  dims_.push_back(std::make_unique<Hierarchy>(std::move(name)));
  return dims_.size() - 1;
}

uint64_t MultiHierarchy::version() const {
  // Every dimension starts at version 1 and each Add bumps it, so the sum
  // grows on both "new dimension" and "new category".
  uint64_t v = 0;
  for (const auto& dim : dims_) v += dim->version();
  return v;
}

Result<size_t> MultiHierarchy::DimensionIndex(std::string_view name) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i]->name() == name) return i;
  }
  return Status::NotFound("no dimension named '" + std::string(name) + "'");
}

MultiHierarchy MakeGarageSaleNamespace() {
  MultiHierarchy ns;
  const size_t loc = ns.AddDimension("Location");
  Hierarchy& location = ns.dimension(loc);
  for (const char* p :
       {"USA/OR/Portland", "USA/OR/Eugene", "USA/OR/Salem",
        "USA/WA/Vancouver", "USA/WA/Seattle", "USA/WA/Spokane",
        "USA/CA/SanFrancisco", "USA/CA/LosAngeles", "USA/CA/Sacramento",
        "France/IDF/Paris", "France/PACA/Marseille"}) {
    (void)location.AddPath(p);
  }
  const size_t mer = ns.AddDimension("Merchandise");
  Hierarchy& merch = ns.dimension(mer);
  for (const char* p :
       {"Furniture/Tables", "Furniture/Chairs", "Furniture/Sofas",
        "Electronics/TV", "Electronics/VCR", "Electronics/Audio",
        "Music/CDs", "Music/Vinyl", "Music/Instruments",
        "SportingGoods/GolfClubs", "SportingGoods/Bicycles",
        "SportingGoods/Skis", "Clothing/Shoes", "Clothing/Coats",
        "Books/Fiction", "Books/Technical"}) {
    (void)merch.AddPath(p);
  }
  return ns;
}

MultiHierarchy MakeGeneExpressionNamespace() {
  MultiHierarchy ns;
  const size_t org = ns.AddDimension("Organism");
  Hierarchy& organism = ns.dimension(org);
  // The Figure-1 taxonomy: Coelomata splits into Protostomia (fruit fly)
  // and Deuterostomia -> Mammalia -> Eutheria -> {Primates, Rodentia}.
  for (const char* p :
       {"Coelomata/Protostomia/DrosophilaMelanogaster",
        "Coelomata/Deuterostomia/Mammalia/Eutheria/Primates/HomoSapiens",
        "Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia/Murinae/Mus/"
        "MusMusculus",
        "Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia/Murinae/"
        "RattusNorvegicus"}) {
    (void)organism.AddPath(p);
  }
  const size_t ct = ns.AddDimension("CellType");
  Hierarchy& cell = ns.dimension(ct);
  for (const char* p :
       {"Neural/Neurons/Sensory", "Neural/Neurons/Motor",
        "Neural/Neurons/Association", "Neural/Glial",
        "Connective/Bone/Osteoblasts", "Connective/Bone/Osteoclasts",
        "Connective/Adipose", "Muscle/Cardiac/Autorhythmic",
        "Muscle/Cardiac/Contractile", "Muscle/Smooth", "Muscle/Skeletal",
        "Epithelial/Cilliated", "Epithelial/Secretory"}) {
    (void)cell.AddPath(p);
  }
  return ns;
}

}  // namespace mqp::ns
