#include "xml/entities.h"

#include <cstdlib>
#include <string>

namespace mqp::xml {

Result<size_t> DecodeEntityAt(std::string_view in, size_t pos,
                              std::string* out) {
  auto err = [](std::string msg, size_t at) {
    return Status::ParseError(msg + " (at byte " + std::to_string(at) + ")");
  };
  const size_t semi = in.find(';', pos);
  if (semi == std::string_view::npos || semi - pos > 12) {
    return err("unterminated entity reference", pos);
  }
  const std::string_view ent = in.substr(pos + 1, semi - pos - 1);
  const size_t next = semi + 1;
  if (ent == "amp") {
    *out += '&';
    return next;
  }
  if (ent == "lt") {
    *out += '<';
    return next;
  }
  if (ent == "gt") {
    *out += '>';
    return next;
  }
  if (ent == "quot") {
    *out += '"';
    return next;
  }
  if (ent == "apos") {
    *out += '\'';
    return next;
  }
  if (!ent.empty() && ent[0] == '#') {
    long code;
    if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
      code = std::strtol(std::string(ent.substr(2)).c_str(), nullptr, 16);
    } else {
      code = std::strtol(std::string(ent.substr(1)).c_str(), nullptr, 10);
    }
    if (code <= 0 || code > 0x10FFFF) {
      return err("invalid character reference", next);
    }
    // Encode as UTF-8.
    const unsigned long cp = static_cast<unsigned long>(code);
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return next;
  }
  return err("unknown entity &" + std::string(ent) + ";", next);
}

std::string EscapeText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string EscapeAttr(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace mqp::xml
