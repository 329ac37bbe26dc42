#include "ns/category_path.h"

#include "common/strings.h"

namespace mqp::ns {

Result<CategoryPath> CategoryPath::Parse(std::string_view text) {
  text = mqp::Trim(text);
  if (text.empty() || text == "*") return CategoryPath();
  const char sep = text.find('/') != std::string_view::npos ? '/' : '.';
  std::vector<std::string> segs;
  for (auto& s : mqp::Split(text, sep)) {
    std::string seg(mqp::Trim(s));
    if (seg.empty()) {
      return Status::ParseError("empty segment in category path '" +
                                std::string(text) + "'");
    }
    segs.push_back(std::move(seg));
  }
  return CategoryPath(std::move(segs));
}

CategoryPath CategoryPath::Child(std::string label) const {
  std::vector<std::string> segs = segments_;
  segs.push_back(std::move(label));
  return CategoryPath(std::move(segs));
}

bool CategoryPath::IsAncestorOrSame(const CategoryPath& other) const {
  if (segments_.size() > other.segments_.size()) return false;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i] != other.segments_[i]) return false;
  }
  return true;
}

const std::string& CategoryPath::ToString() const& {
  if (slash_form_.empty()) {
    slash_form_ = IsTop() ? "*" : mqp::Join(segments_, "/");
  }
  return slash_form_;
}

const std::string& CategoryPath::ToUrnString() const& {
  if (urn_form_.empty()) {
    urn_form_ = IsTop() ? "*" : mqp::Join(segments_, ".");
  }
  return urn_form_;
}

}  // namespace mqp::ns
