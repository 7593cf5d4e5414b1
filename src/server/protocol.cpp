#include "server/protocol.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "obs/encode.hpp"

namespace rct::server {

using obs::append_json_double;
using obs::append_json_string;

bool FlatJsonScanner::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  return false;
}

void FlatJsonScanner::skip_ws() {
  while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
    ++pos_;
}

bool FlatJsonScanner::consume(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

bool FlatJsonScanner::peek(char c) {
  skip_ws();
  return pos_ < text_.size() && text_[pos_] == c;
}

bool FlatJsonScanner::at_end() {
  skip_ws();
  return pos_ >= text_.size();
}

bool FlatJsonScanner::parse_string(std::string& out) {
  if (!consume('"')) return fail("expected string");
  out.clear();
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') return true;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) break;
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        // Decode \uXXXX; the protocol only ever emits ASCII control
        // escapes, so non-ASCII code points are folded to '?' rather
        // than carrying a full UTF-8 encoder.
        if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          value <<= 4;
          if (h >= '0' && h <= '9')
            value |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            value |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            value |= static_cast<unsigned>(h - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        out.push_back(value < 0x80 ? static_cast<char>(value) : '?');
        break;
      }
      default: return fail("unknown escape");
    }
  }
  return fail("unterminated string");
}

bool FlatJsonScanner::parse_value(std::string& raw, char& kind) {
  skip_ws();
  if (pos_ >= text_.size()) return fail("expected value");
  const char c = text_[pos_];
  if (c == '"') {
    kind = 's';
    return parse_string(raw);
  }
  if (c == '{' || c == '[') return skip_container(raw, kind);
  raw.clear();
  while (pos_ < text_.size()) {
    const char v = text_[pos_];
    if (v == ',' || v == '}' || v == ']' || std::isspace(static_cast<unsigned char>(v)) != 0)
      break;
    raw.push_back(v);
    ++pos_;
  }
  if (raw == "true" || raw == "false") {
    kind = 'b';
    return true;
  }
  if (raw == "null") {
    kind = '0';
    return true;
  }
  if (raw.empty()) return fail("expected value");
  kind = 'n';
  return true;
}

bool FlatJsonScanner::skip_container(std::string& raw, char& kind) {
  raw.clear();
  kind = 'c';
  int depth = 0;
  bool in_string = false;
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (in_string) {
      if (c == '\\' && pos_ < text_.size())
        ++pos_;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      --depth;
      if (depth == 0) return true;
    }
  }
  return fail("unterminated container");
}

bool parse_u64(const std::string& raw, std::uint64_t& out) {
  if (raw.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (end != raw.c_str() + raw.size()) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

namespace {

bool parse_f64(const std::string& raw, double& out) {
  if (raw.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end != raw.c_str() + raw.size()) return false;
  out = v;
  return true;
}

}  // namespace

ParsedRequest parse_request(std::string_view line) {
  ParsedRequest result;
  FlatJsonScanner scanner(line);
  if (!scanner.consume('{')) {
    result.error = "request is not a JSON object";
    return result;
  }
  Request& req = result.request;
  bool first = true;
  while (!scanner.peek('}')) {
    if (!first && !scanner.consume(',')) {
      result.error = "expected ',' between fields";
      return result;
    }
    first = false;
    std::string key;
    if (!scanner.parse_string(key) || !scanner.consume(':')) {
      result.error = scanner.error().empty() ? "expected \"key\":" : scanner.error();
      return result;
    }
    std::string raw;
    char kind = 0;
    if (!scanner.parse_value(raw, kind)) {
      result.error = scanner.error();
      return result;
    }
    if (kind == '0' || kind == 'c') continue;  // null / nested: field absent
    bool field_ok = true;
    if (key == "id") {
      field_ok = kind == 'n' && parse_u64(raw, req.id);
    } else if (key == "cmd") {
      field_ok = kind == 's';
      req.cmd = raw;
    } else if (key == "design") {
      field_ok = kind == 's';
      req.design = raw;
    } else if (key == "path") {
      field_ok = kind == 's';
      req.path = raw;
    } else if (key == "net") {
      field_ok = kind == 's';
      req.net = raw;
    } else if (key == "lenient") {
      field_ok = kind == 'b';
      req.lenient = raw == "true";
    } else if (key == "leaves_only") {
      field_ok = kind == 'b';
      req.leaves_only = raw == "true";
    } else if (key == "with_exact") {
      field_ok = kind == 'b';
      req.with_exact = raw == "true";
      req.has_with_exact = true;
    } else if (key == "exact_limit") {
      field_ok = kind == 'n' && parse_u64(raw, req.exact_limit);
    } else if (key == "timeout_ms") {
      field_ok = kind == 'n' && parse_u64(raw, req.timeout_ms);
    } else if (key == "fraction") {
      field_ok = kind == 'n' && parse_f64(raw, req.fraction);
    } else if (key == "trace") {
      field_ok = kind == 's';
      req.trace = raw;
    } else if (key == "span") {
      field_ok = kind == 's';
      req.span = raw;
    }
    // Unknown keys with scalar values are silently skipped.
    if (!field_ok) {
      result.error = "bad value for field \"" + key + "\"";
      return result;
    }
  }
  if (!scanner.consume('}') || !scanner.at_end()) {
    result.error = "trailing bytes after request object";
    return result;
  }
  if (req.cmd.empty()) {
    result.error = "missing \"cmd\"";
    return result;
  }
  result.ok = true;
  return result;
}

std::string encode_request(const Request& request) {
  std::string out = "{\"id\":" + std::to_string(request.id) + ",\"cmd\":";
  append_json_string(out, request.cmd);
  const auto field = [&out](std::string_view key, std::string_view value) {
    out += ",\"";
    out += key;
    out += "\":";
    append_json_string(out, value);
  };
  if (!request.design.empty()) field("design", request.design);
  if (!request.path.empty()) field("path", request.path);
  if (!request.net.empty()) field("net", request.net);
  if (request.lenient) out += ",\"lenient\":true";
  if (request.leaves_only) out += ",\"leaves_only\":true";
  if (request.has_with_exact)
    out += request.with_exact ? ",\"with_exact\":true" : ",\"with_exact\":false";
  if (request.exact_limit != 0)
    out += ",\"exact_limit\":" + std::to_string(request.exact_limit);
  if (request.timeout_ms != 0)
    out += ",\"timeout_ms\":" + std::to_string(request.timeout_ms);
  if (request.fraction != 0.0) {
    out += ",\"fraction\":";
    append_json_double(out, request.fraction);
  }
  if (!request.trace.empty()) field("trace", request.trace);
  if (!request.span.empty()) field("span", request.span);
  out.push_back('}');
  return out;
}

std::string error_response(std::uint64_t id, std::string_view code, std::string_view message) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"ok\":false,\"code\":";
  append_json_string(out, code);
  out += ",\"error\":";
  append_json_string(out, message);
  out.push_back('}');
  return out;
}

std::string overloaded_response(std::uint64_t id, std::uint64_t retry_after_ms,
                                std::string_view message) {
  std::string out = error_response(id, "overloaded", message);
  out.pop_back();  // reopen the object to append the hint
  out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms) + "}";
  return out;
}

bool response_ok(std::string_view response_line) {
  return response_line.find("\"ok\":true") != std::string_view::npos;
}

std::string response_error_code(std::string_view response_line) {
  if (response_ok(response_line)) return {};
  const std::string_view marker = "\"code\":\"";
  const std::size_t at = response_line.find(marker);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + marker.size();
  const std::size_t end = response_line.find('"', begin);
  if (end == std::string_view::npos) return {};
  return std::string(response_line.substr(begin, end - begin));
}

std::uint64_t response_retry_after_ms(std::string_view response_line) {
  const std::string_view marker = "\"retry_after_ms\":";
  const std::size_t at = response_line.find(marker);
  if (at == std::string_view::npos) return 0;
  std::size_t pos = at + marker.size();
  std::uint64_t value = 0;
  while (pos < response_line.size() && response_line[pos] >= '0' && response_line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(response_line[pos] - '0');
    ++pos;
  }
  return value;
}

}  // namespace rct::server
