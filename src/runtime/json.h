// The one JSON codec behind every hand-rolled JSON artefact: profiles and
// compile traces (runtime/profile.cc), metrics snapshots, request traces
// and the introspection endpoints (obs/). It lives in runtime so both
// layers may include it (tools/lint_layering.py).
//
// The writer side is an escaper plus a number formatter; callers assemble
// objects themselves. The reader is a minimal recursive-descent cursor
// over exactly what the writers emit: objects, arrays, strings and numbers.
// Every string JsonEscape writes, JsonReader::ParseString reads back
// byte-identical, control characters included.

#ifndef LAMBDADB_RUNTIME_JSON_H_
#define LAMBDADB_RUNTIME_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ldb {

/// The body of a JSON string literal for `s` (no surrounding quotes): `"`,
/// `\`, `\n`, `\t` and `\r` get their short escapes, other control
/// characters `\u00XX`; every other byte passes through.
std::string JsonEscape(std::string_view s);

/// `s` as a quoted JSON string literal.
std::string JsonQuote(std::string_view s);

/// `d` printed with %.17g, so parsing it back reproduces the double
/// bit-exactly. JSON has no Inf/NaN: a non-finite value prints as 0.
std::string JsonNumber(double d);

/// Cursor over a JSON text. Malformed or truncated input throws ParseError
/// whose message names `what` (e.g. "profile JSON").
class JsonReader {
 public:
  JsonReader(const std::string& text, const char* what)
      : s_(text), what_(what) {}

  void ExpectObjectStart();
  /// Reads the next key of the current object into *key; false (and the
  /// closing brace consumed) at the object's end.
  bool NextKey(std::string* key);
  void ExpectArrayStart();
  /// True when another element follows; false (and the closing bracket
  /// consumed) at the array's end.
  bool NextElement();

  std::string ParseString();
  double ParseNumber();
  uint64_t ParseUint() { return static_cast<uint64_t>(ParseNumber()); }
  /// Skips one value of any type.
  void SkipValue();

 private:
  char Peek() const;
  void Skip();
  void Expect(char c);
  [[noreturn]] void Fail(const std::string& msg) const;

  const std::string& s_;
  const char* what_;
  size_t pos_ = 0;
};

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_JSON_H_
