#include "src/runtime/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/runtime/error.h"

namespace ldb {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonQuote(std::string_view s) {
  return '"' + JsonEscape(s) + '"';
}

std::string JsonNumber(double d) {
  if (!std::isfinite(d)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

void JsonReader::ExpectObjectStart() {
  Skip();
  Expect('{');
}

bool JsonReader::NextKey(std::string* key) {
  Skip();
  if (Peek() == '}') {
    ++pos_;
    return false;
  }
  if (Peek() == ',') ++pos_;
  Skip();
  *key = ParseString();
  Skip();
  Expect(':');
  return true;
}

void JsonReader::ExpectArrayStart() {
  Skip();
  Expect('[');
}

bool JsonReader::NextElement() {
  Skip();
  if (Peek() == ']') {
    ++pos_;
    return false;
  }
  if (Peek() == ',') {
    ++pos_;
    Skip();
  }
  return true;
}

std::string JsonReader::ParseString() {
  Skip();
  Expect('"');
  std::string out;
  while (pos_ < s_.size() && s_[pos_] != '"') {
    char c = s_[pos_++];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= s_.size()) break;  // Expect('"') below reports it
    char e = s_[pos_++];
    switch (e) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        // JsonEscape writes \u00XX for control characters only.
        const std::string hex = s_.substr(pos_, 4);
        pos_ += hex.size();
        const bool ok =
            hex.size() == 4 && std::all_of(hex.begin(), hex.end(), [](char h) {
              return std::isxdigit(static_cast<unsigned char>(h)) != 0;
            });
        const unsigned long v = ok ? std::strtoul(hex.c_str(), nullptr, 16) : 0;
        if (!ok || v >= 0x80) Fail("bad \\u escape");
        out += static_cast<char>(v);
        break;
      }
      default: out += e;  // '"', '\\', '/'
    }
  }
  Expect('"');
  return out;
}

double JsonReader::ParseNumber() {
  Skip();
  const size_t start = pos_;
  while (pos_ < s_.size() &&
         (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
          std::strchr("+-.eE", s_[pos_]) != nullptr)) {
    ++pos_;
  }
  if (pos_ == start) Fail("expected number");
  return std::strtod(s_.c_str() + start, nullptr);
}

void JsonReader::SkipValue() {
  Skip();
  const char c = Peek();
  if (c == '"') {
    ParseString();
  } else if (c == '{') {
    ExpectObjectStart();
    std::string k;
    while (NextKey(&k)) SkipValue();
  } else if (c == '[') {
    ExpectArrayStart();
    while (NextElement()) SkipValue();
  } else {
    ParseNumber();
  }
}

char JsonReader::Peek() const {
  if (pos_ >= s_.size()) Fail("truncated");
  return s_[pos_];
}

void JsonReader::Skip() {
  while (pos_ < s_.size() &&
         std::isspace(static_cast<unsigned char>(s_[pos_]))) {
    ++pos_;
  }
}

void JsonReader::Expect(char c) {
  if (pos_ >= s_.size() || s_[pos_] != c) {
    Fail(std::string("expected '") + c + "'");
  }
  ++pos_;
}

void JsonReader::Fail(const std::string& msg) const {
  throw ParseError(std::string(what_) + ": " + msg);
}

}  // namespace ldb
