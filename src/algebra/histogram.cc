#include "algebra/histogram.h"

#include <algorithm>
#include <cmath>

#include "algebra/expr.h"
#include "common/strings.h"
#include "xml/token_reader.h"
#include "xml/token_writer.h"

namespace mqp::algebra {

std::optional<FieldHistogram> FieldHistogram::Build(const ItemSet& items,
                                                    const std::string& field,
                                                    size_t buckets) {
  if (buckets == 0) return std::nullopt;
  std::vector<double> values;
  values.reserve(items.size());
  auto ref = Expr::Field(field);
  for (const auto& item : items) {
    auto v = ref->EvalValue(*item);
    double d = 0;
    if (v && mqp::ParseDouble(v->text, &d)) values.push_back(d);
  }
  if (values.size() < 2) return std::nullopt;
  FieldHistogram h;
  h.field = field;
  auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  h.min = *lo;
  h.max = *hi;
  h.counts.assign(buckets, 0);
  const double width = (h.max - h.min) / static_cast<double>(buckets);
  for (double d : values) {
    size_t b = width <= 0
                   ? 0
                   : static_cast<size_t>((d - h.min) / width);
    if (b >= buckets) b = buckets - 1;  // max value lands in last bucket
    ++h.counts[b];
  }
  h.total = values.size();
  return h;
}

double FieldHistogram::FractionBelow(double v) const {
  if (total == 0 || counts.empty()) return 0.5;
  if (v <= min) return 0;
  if (v > max) return 1;
  const double width =
      (max - min) / static_cast<double>(counts.size());
  double below = 0;
  if (width <= 0) {
    // Degenerate single-value histogram.
    return v > min ? 1.0 : 0.0;
  }
  size_t bucket = static_cast<size_t>((v - min) / width);
  if (bucket >= counts.size()) bucket = counts.size() - 1;
  for (size_t i = 0; i < bucket; ++i) {
    below += static_cast<double>(counts[i]);
  }
  // Linear interpolation inside the containing bucket.
  const double bucket_lo = min + static_cast<double>(bucket) * width;
  below += static_cast<double>(counts[bucket]) * ((v - bucket_lo) / width);
  return below / static_cast<double>(total);
}

double FieldHistogram::FractionEquals(double v) const {
  if (total == 0 || counts.empty()) return 0.1;
  if (v < min || v > max) return 0;
  const double width =
      (max - min) / static_cast<double>(counts.size());
  if (width <= 0) return 1.0;  // all values identical
  size_t bucket = static_cast<size_t>((v - min) / width);
  if (bucket >= counts.size()) bucket = counts.size() - 1;
  // Assume the bucket's mass is spread over ~width distinct values.
  const double bucket_fraction =
      static_cast<double>(counts[bucket]) / static_cast<double>(total);
  return bucket_fraction / std::max(1.0, width);
}

void FieldHistogram::EmitTokens(xml::TokenWriter* w) const {
  w->Start("histogram");
  w->Attr("field", field);
  w->Attr("min", mqp::FormatDouble(min));
  w->Attr("max", mqp::FormatDouble(max));
  w->Attr("total", total);
  for (uint64_t c : counts) {
    w->Start("b");
    w->Attr("c", c);
    w->End();
  }
  w->End();
}

Result<FieldHistogram> FieldHistogram::FromTokens(xml::TokenReader* r) {
  FieldHistogram h;
  xml::AttrList attrs;
  MQP_ASSIGN_OR_RETURN(xml::Token t, r->ReadAttrs(&attrs));
  h.field = attrs.Get("field");
  if (h.field.empty()) {
    return Status::ParseError("<histogram> missing field attribute");
  }
  if (!mqp::ParseDouble(attrs.Get("min"), &h.min) ||
      !mqp::ParseDouble(attrs.Get("max"), &h.max)) {
    return Status::ParseError("<histogram> has bad min/max");
  }
  int64_t total = 0;
  if (!mqp::ParseInt64(attrs.Get("total"), &total) || total < 0) {
    return Status::ParseError("<histogram> has bad total");
  }
  h.total = static_cast<uint64_t>(total);
  while (t.type != xml::TokenType::kEndElement) {
    if (t.type == xml::TokenType::kStartElement) {
      if (t.name == "b") {
        // Buckets are the most numerous wire element; read the single
        // "c" attribute straight off the token stream, no copies.
        int64_t c = -1;
        while (true) {
          if (!r->Advance()) return r->status();
          const xml::Token& bt = r->current();
          if (bt.type == xml::TokenType::kAttr) {
            if (bt.name == "c" && !mqp::ParseInt64(bt.value, &c)) c = -1;
          } else if (bt.type == xml::TokenType::kStartElement) {
            MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
          } else if (bt.type == xml::TokenType::kEndElement) {
            break;
          }  // text: ignored
        }
        if (c < 0) {
          return Status::ParseError("<histogram> has a bad bucket");
        }
        h.counts.push_back(static_cast<uint64_t>(c));
      } else {
        MQP_RETURN_IF_ERROR(r->SkipToElementEnd());
      }
    }
    if (!r->Advance()) return r->status();
    t = r->current();
  }
  if (h.counts.empty()) {
    return Status::ParseError("<histogram> has no buckets");
  }
  return h;
}

}  // namespace mqp::algebra
