#include "xml/writer.h"

#include <atomic>

#include "xml/entities.h"

namespace mqp::xml {

namespace {

void WriteNode(const Node& node, std::string* out) {
  if (node.is_text()) {
    *out += EscapeText(node.text());
    return;
  }
  *out += '<';
  *out += node.name();
  for (const auto& [k, v] : node.attrs()) {
    *out += ' ';
    *out += k;
    *out += "=\"";
    *out += EscapeAttr(v);
    *out += '"';
  }
  if (node.children().empty()) {
    *out += "/>";
    return;
  }
  *out += '>';
  for (const auto& c : node.children()) {
    WriteNode(*c, out);
  }
  *out += "</";
  *out += node.name();
  *out += '>';
}

size_t EscapedTextSize(const std::string& s) {
  size_t n = 0;
  for (char c : s) {
    switch (c) {
      case '&':
        n += 5;
        break;
      case '<':
      case '>':
        n += 4;
        break;
      default:
        ++n;
    }
  }
  return n;
}

size_t EscapedAttrSize(const std::string& s) {
  size_t n = 0;
  for (char c : s) {
    switch (c) {
      case '&':
        n += 5;
        break;
      case '"':
      case '\'':
        n += 6;
        break;
      case '<':
      case '>':
        n += 4;
        break;
      default:
        ++n;
    }
  }
  return n;
}

}  // namespace

namespace {
// Thread-local: each handler thread counts its own serializations (the
// delta-snapshot pattern, same as xml::DomNodesBuilt()).
thread_local uint64_t g_serialize_calls = 0;
}

std::string Serialize(const Node& node) {
  ++g_serialize_calls;
  std::string out;
  WriteNode(node, &out);
  return out;
}

uint64_t SerializeCalls() { return g_serialize_calls; }

size_t SerializedSize(const Node& node) {
  const uint64_t epoch = DomMutationEpoch();
  if (node.size_epoch_.load(std::memory_order_acquire) == epoch) {
    return node.cached_size_.load(std::memory_order_relaxed);
  }
  size_t n;
  if (node.is_text()) {
    n = EscapedTextSize(node.text());
  } else {
    n = 1 + node.name().size();  // "<name"
    for (const auto& [k, v] : node.attrs()) {
      n += 1 + k.size() + 2 + EscapedAttrSize(v) + 1;  // ' k="v"'
    }
    if (node.children().empty()) {
      n += 2;  // "/>"
    } else {
      n += 1;  // '>'
      for (const auto& c : node.children()) {
        n += SerializedSize(*c);
      }
      n += 3 + node.name().size();  // "</name>"
    }
  }
  // Value first, epoch last (release) — see the cache notes in node.h.
  node.cached_size_.store(n, std::memory_order_relaxed);
  node.size_epoch_.store(epoch, std::memory_order_release);
  node.cache_marked_.store(true, std::memory_order_relaxed);
  return n;
}

}  // namespace mqp::xml
