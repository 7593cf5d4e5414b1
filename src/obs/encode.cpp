#include "obs/encode.hpp"

#include <cstdio>

namespace rct::obs {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_json_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12e", v);
  out += buf;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a_words(std::span<const std::uint64_t> words, std::uint64_t hash) {
  for (const std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (w >> (8 * byte)) & 0xffULL;
      hash *= kFnvPrime;
    }
  }
  return hash;
}

}  // namespace rct::obs
