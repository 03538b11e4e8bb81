#include "src/runtime/serialize.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/runtime/error.h"

namespace ldb {

namespace {

// -- writing ------------------------------------------------------------------

void WriteString(std::ostream& os, std::string_view s) {
  os << s.size() << ':' << s;
}

void WriteType(std::ostream& os, const TypePtr& t) {
  switch (t->kind()) {
    case Type::Kind::kBool: os << 'b'; return;
    case Type::Kind::kInt:  os << 'i'; return;
    case Type::Kind::kReal: os << 'r'; return;
    case Type::Kind::kStr:  os << 's'; return;
    case Type::Kind::kAny:  os << 'a'; return;
    case Type::Kind::kClass:
      os << 'C';
      WriteString(os, t->class_name());
      return;
    case Type::Kind::kSet:
    case Type::Kind::kBag:
    case Type::Kind::kList:
      os << (t->kind() == Type::Kind::kSet    ? 'S'
             : t->kind() == Type::Kind::kBag ? 'G'
                                             : 'L')
         << '(';
      WriteType(os, t->elem());
      os << ')';
      return;
    case Type::Kind::kTuple: {
      os << 'T' << t->fields().size() << '(';
      for (const auto& [n, f] : t->fields()) {
        WriteString(os, n);
        WriteType(os, f);
      }
      os << ')';
      return;
    }
    case Type::Kind::kFunc:
      throw UnsupportedError("function types do not serialize");
  }
}

void WriteValue(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      os << 'N';
      return;
    case Value::Kind::kBool:
      os << (v.AsBool() ? "B1" : "B0");
      return;
    case Value::Kind::kInt:
      os << 'I' << v.AsInt() << ';';
      return;
    case Value::Kind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsReal());
      os << 'R' << buf << ';';
      return;
    }
    case Value::Kind::kStr:
      os << 's';
      WriteString(os, v.AsStr());
      return;
    case Value::Kind::kTuple: {
      const TupleView t = v.AsTuple();
      os << 't' << t.size() << '(';
      for (const auto& [n, f] : t) {
        WriteString(os, n);
        WriteValue(os, f);
      }
      os << ')';
      return;
    }
    case Value::Kind::kSet:
    case Value::Kind::kBag:
    case Value::Kind::kList: {
      char tag = v.kind() == Value::Kind::kSet    ? 'e'
                 : v.kind() == Value::Kind::kBag ? 'g'
                                                 : 'l';
      os << tag << v.AsElems().size() << '(';
      for (const Value& x : v.AsElems()) WriteValue(os, x);
      os << ')';
      return;
    }
    case Value::Kind::kRef: {
      const Ref r = v.AsRef();
      os << 'f';
      WriteString(os, r.class_name());
      os << '#' << r.oid << ';';
      return;
    }
  }
}

// -- reading ------------------------------------------------------------------

// Up-front reservation for an element list whose count comes from an input
// of unknown size (a stream dump): the count is untrusted there, so the
// list grows as elements actually arrive beyond this.
constexpr int64_t kMaxUntrustedReserve = 1024;

class Reader {
 public:
  /// `size`, when known (>= 0), is the input's length: it bounds every
  /// count, since each element, field or character takes at least a byte.
  explicit Reader(std::istream& is, std::streamoff size = -1)
      : is_(is), size_(size) {}

  char GetChar() {
    int c = is_.get();
    if (c == EOF) throw ParseError("dump: unexpected end of input");
    return static_cast<char>(c);
  }

  void Expect(char c) {
    char got = GetChar();
    if (got != c) {
      throw ParseError(std::string("dump: expected '") + c + "', got '" + got +
                       "'");
    }
  }

  int64_t ReadInt() {
    uint64_t magnitude = 0;
    bool neg = false;
    int c = is_.peek();
    if (c == '-') {
      neg = true;
      is_.get();
      c = is_.peek();
    }
    if (c < '0' || c > '9') throw ParseError("dump: expected integer");
    // The negative range reaches one further than the positive one, so
    // INT64_MIN still parses.
    const uint64_t limit =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + neg;
    while (c >= '0' && c <= '9') {
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (magnitude > (limit - digit) / 10) {
        throw ParseError("dump: integer out of range");
      }
      magnitude = magnitude * 10 + digit;
      is_.get();
      c = is_.peek();
    }
    // Negate in unsigned arithmetic: -INT64_MIN would overflow int64_t.
    return static_cast<int64_t>(neg ? 0 - magnitude : magnitude);
  }

  // A count of elements, fields or bytes still to read: non-negative and
  // no larger than the bytes left in the input, so a hostile count cannot
  // reserve memory the input could never fill.
  int64_t ReadCount() {
    int64_t n = ReadInt();
    if (n < 0) throw ParseError("dump: negative count");
    if (size_ >= 0 && n > size_ - static_cast<std::streamoff>(is_.tellg())) {
      throw ParseError("dump: count " + std::to_string(n) +
                       " exceeds the remaining input");
    }
    return n;
  }

  std::string ReadString() {
    int64_t len = ReadCount();
    Expect(':');
    // In bounded chunks: with an unknown input size the length is
    // untrusted, and a short input ends the read before memory is spent.
    std::string out;
    while (static_cast<int64_t>(out.size()) < len) {
      const size_t at = out.size();
      const size_t chunk = static_cast<size_t>(
          std::min<int64_t>(len - static_cast<int64_t>(at), 1 << 16));
      out.resize(at + chunk);
      is_.read(out.data() + at, static_cast<std::streamsize>(chunk));
      if (static_cast<size_t>(is_.gcount()) != chunk) {
        throw ParseError("dump: truncated string");
      }
    }
    return out;
  }

  double ReadReal() {
    std::string num;
    int c = is_.peek();
    while (c != EOF && (std::isdigit(c) || c == '-' || c == '+' || c == '.' ||
                        c == 'e' || c == 'E' || c == 'n' || c == 'a' ||
                        c == 'i' || c == 'f')) {
      num.push_back(static_cast<char>(is_.get()));
      c = is_.peek();
    }
    try {
      return std::stod(num);
    } catch (...) {
      throw ParseError("dump: bad real '" + num + "'");
    }
  }

  TypePtr ReadType() {
    char tag = GetChar();
    switch (tag) {
      case 'b': return Type::Bool();
      case 'i': return Type::Int();
      case 'r': return Type::Real();
      case 's': return Type::Str();
      case 'a': return Type::Any();
      case 'C': return Type::Class(ReadString());
      case 'S':
      case 'G':
      case 'L': {
        DepthGuard guard(&depth_, kMaxValueDepth, "dump");
        Expect('(');
        TypePtr elem = ReadType();
        Expect(')');
        if (tag == 'S') return Type::Set(elem);
        if (tag == 'G') return Type::Bag(elem);
        return Type::List(elem);
      }
      case 'T': {
        DepthGuard guard(&depth_, kMaxValueDepth, "dump");
        int64_t n = ReadCount();
        Expect('(');
        std::vector<std::pair<std::string, TypePtr>> fields;
        for (int64_t i = 0; i < n; ++i) {
          std::string name = ReadString();
          fields.emplace_back(std::move(name), ReadType());
        }
        Expect(')');
        return Type::Tuple(std::move(fields));
      }
      default:
        throw ParseError(std::string("dump: bad type tag '") + tag + "'");
    }
  }

  Value ReadValue() {
    char tag = GetChar();
    switch (tag) {
      case 'N': return Value::Null();
      case 'B': return Value::Bool(GetChar() == '1');
      case 'I': {
        int64_t i = ReadInt();
        Expect(';');
        return Value::Int(i);
      }
      case 'R': {
        double d = ReadReal();
        Expect(';');
        return Value::Real(d);
      }
      case 's': return Value::Str(ReadString());
      case 't': {
        DepthGuard guard(&depth_, kMaxValueDepth, "dump");
        int64_t n = ReadCount();
        Expect('(');
        Fields fields;
        for (int64_t i = 0; i < n; ++i) {
          std::string name = ReadString();
          fields.emplace_back(std::move(name), ReadValue());
        }
        Expect(')');
        return Value::Tuple(std::move(fields));
      }
      case 'e':
      case 'g':
      case 'l': {
        DepthGuard guard(&depth_, kMaxValueDepth, "dump");
        int64_t n = ReadCount();
        Expect('(');
        Elems elems;
        elems.reserve(static_cast<size_t>(
            size_ >= 0 ? n : std::min(n, kMaxUntrustedReserve)));
        for (int64_t i = 0; i < n; ++i) elems.push_back(ReadValue());
        Expect(')');
        if (tag == 'e') return Value::Set(std::move(elems));
        if (tag == 'g') return Value::Bag(std::move(elems));
        return Value::List(std::move(elems));
      }
      case 'f': {
        std::string cls = ReadString();
        Expect('#');
        int64_t oid = ReadInt();
        Expect(';');
        return Value::MakeRef(std::move(cls), oid);
      }
      default:
        throw ParseError(std::string("dump: bad value tag '") + tag + "'");
    }
  }

  void SkipWhitespace() {
    while (is_.peek() == '\n' || is_.peek() == ' ' || is_.peek() == '\r') {
      is_.get();
    }
  }

  std::string ReadWord() {
    SkipWhitespace();
    std::string out;
    int c = is_.peek();
    while (c != EOF && !std::isspace(c)) {
      out.push_back(static_cast<char>(is_.get()));
      c = is_.peek();
    }
    return out;
  }

 private:
  std::istream& is_;
  std::streamoff size_;
  int depth_ = 0;
};

}  // namespace

void DumpDatabase(const Database& db, std::ostream& os) {
  os << "lambdadb-dump 1\n";
  const Schema& schema = db.schema();
  for (const auto& [name, decl] : schema.classes()) {
    os << "class " << name << ' ' << (decl.extent.empty() ? "-" : decl.extent)
       << ' ' << decl.attributes.size() << '\n';
    for (const auto& [attr, type] : decl.attributes) {
      os << "attr ";
      WriteString(os, attr);
      os << ' ';
      WriteType(os, type);
      os << '\n';
    }
  }
  // Objects, per class, in oid order (extents only reference by oid so a
  // full per-class walk needs the extent; classes without extents hold no
  // reachable objects of their own here — every Insert goes through a class
  // with storage, so walk via Deref over the extent refs).
  for (const auto& [name, decl] : schema.classes()) {
    if (decl.extent.empty()) continue;
    const std::vector<Value>& refs = db.Extent(decl.extent);
    os << "objects " << name << ' ' << refs.size() << '\n';
    for (const Value& ref : refs) {
      WriteValue(os, db.Deref(ref.AsRef()));
      os << '\n';
    }
  }
  // Index declarations (extent + attr are identifiers, so plain words are
  // safe, mirroring the `class` record). Only the spec is recorded — the
  // buckets are derivable, so RebuildIndexes reconstructs them after load.
  for (const auto& [extent, attr] : db.IndexSpecs()) {
    os << "index " << extent << ' ' << attr << '\n';
  }
  os << "end\n";
}

namespace {
int64_t ParseCount(const std::string& word) {
  try {
    size_t used = 0;
    int64_t out = std::stoll(word, &used);
    if (used != word.size() || out < 0) throw std::invalid_argument(word);
    return out;
  } catch (...) {
    throw ParseError("dump: bad count '" + word + "'");
  }
}
}  // namespace

Database LoadDatabase(std::istream& is) {
  Reader r(is);
  if (r.ReadWord() != "lambdadb-dump" || r.ReadWord() != "1") {
    throw ParseError("dump: bad header");
  }
  Schema schema;
  std::string word = r.ReadWord();
  // Classes must all be declared before objects (DumpDatabase's layout).
  std::vector<std::pair<std::string, int64_t>> object_sections;
  while (word == "class") {
    ClassDecl decl;
    decl.name = r.ReadWord();
    std::string extent = r.ReadWord();
    if (extent != "-") decl.extent = extent;
    int64_t n = ParseCount(r.ReadWord());
    for (int64_t i = 0; i < n; ++i) {
      if (r.ReadWord() != "attr") throw ParseError("dump: expected attr");
      r.SkipWhitespace();
      std::string attr_name = r.ReadString();
      r.SkipWhitespace();
      decl.attributes.emplace_back(std::move(attr_name), r.ReadType());
    }
    schema.AddClass(std::move(decl));
    word = r.ReadWord();
  }
  Database db(std::move(schema));
  while (word == "objects") {
    std::string cls = r.ReadWord();
    int64_t n = ParseCount(r.ReadWord());
    for (int64_t i = 0; i < n; ++i) {
      r.SkipWhitespace();
      Value object = r.ReadValue();
      Value ref = db.Insert(cls, std::move(object));
      // Oids must be stable for refs serialized inside other objects.
      if (ref.AsRef().oid != i) throw ParseError("dump: oid mismatch");
    }
    word = r.ReadWord();
  }
  while (word == "index") {
    std::string extent = r.ReadWord();
    std::string attr = r.ReadWord();
    db.DeclareIndex(extent, attr);
    word = r.ReadWord();
  }
  if (word != "end") throw ParseError("dump: expected 'end', got '" + word + "'");
  return db;
}

std::string DumpDatabaseToString(const Database& db) {
  std::ostringstream os;
  DumpDatabase(db, os);
  return os.str();
}

Database LoadDatabaseFromString(const std::string& dump) {
  std::istringstream is(dump);
  return LoadDatabase(is);
}

std::string ValueToText(const Value& v) {
  std::ostringstream os;
  WriteValue(os, v);
  return os.str();
}

Value ValueFromText(const std::string& text) {
  std::istringstream is(text);
  Reader r(is, static_cast<std::streamoff>(text.size()));
  Value v = r.ReadValue();
  if (is.peek() != EOF) {
    throw ParseError("value: trailing bytes after a complete value");
  }
  return v;
}

}  // namespace ldb
