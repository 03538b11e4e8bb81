// Database serialization: dump a schema + all objects to a stream and load
// them back. This gives the in-memory store the persistence role the paper
// planned to delegate to SHORE (Section 6) — enough to snapshot generated
// workloads, ship regression databases with tests, and reload them byte-
// identically.
//
// The format is a line-oriented text format with length-prefixed strings
// (so arbitrary content round-trips):
//
//   lambdadb-dump 1
//   class <name> <extent-or-"-"> <n-attrs>
//   attr <len>:<name> <type>
//   ...
//   objects <class> <count>
//   <value>          (one per line)
//   index <extent> <attr>
//
// Types serialize as: b | i | r | s | C<len>:<name> | S(<t>) | G(<t>) |
// L(<t>) | T<n>(<len>:<name><t>...). Values as: N | B0/B1 | I<int>; |
// R<%.17g>; | s<len>:<bytes> | t<n>(<len>:<name><v>...) | e/g/l<n>(<v>...) |
// f<len>:<class>#<oid>; (numeric atoms are ';'-terminated so they cannot
// run into a following length prefix).

#ifndef LAMBDADB_RUNTIME_SERIALIZE_H_
#define LAMBDADB_RUNTIME_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "src/runtime/database.h"
#include "src/runtime/error.h"

namespace ldb {

/// Deepest nesting of collections and tuples (or of collection and tuple
/// types) the reader accepts; deeper input is a ParseError. Reading, and
/// every recursive pass that later walks a value (compare, hash, print,
/// destroy), spends well under 1 KiB of stack per level, so a value at the
/// limit needs under 256 KiB: a small slice of a server worker thread's
/// default stack (8 MiB on Linux), while no value the engine builds nests
/// anywhere near this deep.
constexpr int kMaxValueDepth = 256;

/// The same budget for query text: the deepest tree the OQL parser
/// (oql/parser.h) and the calculus parser (verify/calc_parser.h) build —
/// counted as tree height, so a left-deep `1+1+...` chain counts one level
/// per operator — and the deepest their recursive descent goes. Deeper
/// input is a ParseError, so parsing and every recursive pass downstream
/// (translate, normalize, typecheck, unnest, print, verify, slot compile,
/// the evaluators) stay within a server worker thread's stack.
constexpr int kMaxQueryDepth = kMaxValueDepth;

/// Counts one level of nesting against `limit` for its scope. The recursive
/// readers (the dump/value reader, the OQL and calculus parsers) hold one
/// per recursive rule, so input past the budget is a ParseError naming
/// `what` before the recursion goes any deeper.
class DepthGuard {
 public:
  DepthGuard(int* depth, int limit, const char* what) : depth_(depth) {
    if (++*depth_ > limit) {
      --*depth_;
      throw ParseError(std::string(what) + ": nesting deeper than " +
                       std::to_string(limit) + " levels");
    }
  }
  ~DepthGuard() { --*depth_; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;

 private:
  int* depth_;
};

/// Writes the database (schema + every object, in oid order) to `os`.
void DumpDatabase(const Database& db, std::ostream& os);

/// Reads a database previously written by DumpDatabase. Index contents are
/// not part of the dump: their (extent, attr) declarations load as pending
/// specs (Database::DeclareIndex) and RebuildIndexes materializes them.
/// Throws ParseError on malformed input.
Database LoadDatabase(std::istream& is);

/// Convenience: round-trip through a string.
std::string DumpDatabaseToString(const Database& db);
Database LoadDatabaseFromString(const std::string& dump);

/// Serializes one value in the dump's value syntax (see the format comment
/// above). The encoding is self-delimiting, so values can be concatenated
/// and read back one at a time — the wire protocol (src/net/) uses it to
/// ship result rows and parameter bindings.
std::string ValueToText(const Value& v);

/// Parses one value in the dump syntax; the whole string must be consumed.
/// Throws ParseError on malformed input, including a negative count or one
/// larger than the bytes left (checked before anything is reserved) and
/// nesting deeper than kMaxValueDepth.
Value ValueFromText(const std::string& text);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_SERIALIZE_H_
