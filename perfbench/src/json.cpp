#include "json.hpp"

#include <cstdlib>
#include <cstring>

namespace pb::json {

const Value* Value::get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

void Cursor::fail(const char* what) const {
  throw ParseError(std::string("json: ") + what + " at byte " + std::to_string(pos_));
}

void Cursor::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' || text_[pos_] == '\t'))
    ++pos_;
}

bool Cursor::at_end() {
  skip_ws();
  return pos_ == text_.size();
}

void Cursor::expect(char ch) {
  if (!accept(ch)) fail("unexpected character");
}

bool Cursor::accept(char ch) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == ch) {
    ++pos_;
    return true;
  }
  return false;
}

std::string Cursor::key() {
  skip_ws();
  std::string k = string();
  expect(':');
  return k;
}

std::string Cursor::string() {
  if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
  ++pos_;
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char ch = text_[pos_++];
    if (ch == '"') return out;
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        // Node and net names are ASCII; only control characters come
        // escaped, so a one-byte code point is all that can appear.
        if (pos_ + 4 > text_.size()) fail("short \\u escape");
        const unsigned long cp = std::strtoul(std::string(text_.substr(pos_, 4)).c_str(), nullptr, 16);
        if (cp > 0x7f) fail("non-ASCII \\u escape");
        out.push_back(static_cast<char>(cp));
        pos_ += 4;
        break;
      }
      default: fail("bad escape");
    }
  }
}

Value Cursor::value() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end");
  Value v;
  const char ch = text_[pos_];
  if (ch == '{') {
    ++pos_;
    v.type = Value::Type::kObject;
    if (accept('}')) return v;
    do {
      std::string k = key();
      v.object[std::move(k)] = value();
    } while (accept(','));
    expect('}');
  } else if (ch == '[') {
    ++pos_;
    v.type = Value::Type::kArray;
    if (accept(']')) return v;
    do {
      v.array.push_back(value());
    } while (accept(','));
    expect(']');
  } else if (ch == '"') {
    v.type = Value::Type::kString;
    v.string = string();
  } else if (text_.compare(pos_, 4, "true") == 0) {
    v.type = Value::Type::kBool;
    v.boolean = true;
    pos_ += 4;
  } else if (text_.compare(pos_, 5, "false") == 0) {
    v.type = Value::Type::kBool;
    pos_ += 5;
  } else if (text_.compare(pos_, 4, "null") == 0) {
    pos_ += 4;
  } else {
    std::size_t end = pos_;
    while (end < text_.size() && std::strchr("+-0123456789.eE", text_[end]) != nullptr) ++end;
    if (end == pos_) fail("unexpected character");
    const std::string num(text_.substr(pos_, end - pos_));
    char* stop = nullptr;
    v.type = Value::Type::kNumber;
    v.number = std::strtod(num.c_str(), &stop);
    if (stop != num.c_str() + num.size()) fail("bad number");
    pos_ = end;
  }
  return v;
}

Value parse(std::string_view text) {
  Cursor c(text);
  Value v = c.value();
  if (!c.at_end()) throw ParseError("json: trailing data");
  return v;
}

}  // namespace pb::json
