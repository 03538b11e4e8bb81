// Runtime value model for the lambdadb query engine.
//
// Values are the data the engine computes over: the primitives of the monoid
// calculus (booleans, integers, reals, strings), the NULL value introduced by
// outer-joins and outer-unnests (Fegaras, SIGMOD'98, Section 3), records
// ("tuples" in the paper), the three collection kinds (set, bag, list), and
// references to objects stored in class extents (the OODB part).
//
// Values are immutable and cheap to copy: records and collections hold their
// elements behind shared_ptr, so rewriting passes and evaluators can share
// structure freely.
//
// Sets and bags are kept in a canonical order (sorted by Value::Compare; sets
// additionally deduplicated) so that operator== is plain structural equality
// and query results can be compared directly in tests. Compare-equal values
// (3 and 3.0, -0.0 and 0.0, NaNs of either sign) keep their stream order:
// the first in stream order is kept, and a set keeps only that one. Because
// of that rule a collection can be canonicalized in pieces — per-morsel runs
// merged in morsel order (MergeCanonicalRuns) — and still come out
// identical to canonicalizing the whole stream at once.

#ifndef LAMBDADB_RUNTIME_VALUE_H_
#define LAMBDADB_RUNTIME_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ldb {

class Value;

/// Named fields of a record value, in declaration order.
using Fields = std::vector<std::pair<std::string, Value>>;
/// Elements of a collection value.
using Elems = std::vector<Value>;

/// A reference to an object living in a class extent of a Database.
struct Ref {
  std::string class_name;
  int64_t oid = 0;
};

/// An immutable runtime value.
class Value {
 public:
  enum class Kind {
    kNull,    ///< The NULL value (outer-join padding). Distinct from any other.
    kBool,
    kInt,     ///< 64-bit signed integer.
    kReal,    ///< Double-precision float.
    kStr,
    kTuple,   ///< Record with named attributes.
    kSet,     ///< Canonical: sorted, deduplicated.
    kBag,     ///< Canonical: sorted, duplicates kept.
    kList,    ///< Order preserved as constructed.
    kRef,     ///< Reference to an object in a class extent.
  };

  /// Constructs NULL.
  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Real(double d);
  static Value Str(std::string s);
  /// Builds a record value from named fields (order preserved).
  static Value Tuple(Fields fields);
  /// Builds a set: elements are sorted and deduplicated (CanonicalizeElems).
  static Value Set(Elems elems);
  /// Builds a bag: elements are sorted, duplicates kept (CanonicalizeElems).
  static Value Bag(Elems elems);
  /// Builds a set from elements already in canonical order (strictly
  /// ascending) without sorting them again. Debug builds check the order.
  static Value SetFromCanonical(Elems elems);
  /// Builds a bag from elements already in canonical order (non-descending)
  /// without sorting them again. Debug builds check the order.
  static Value BagFromCanonical(Elems elems);
  /// Builds a list: element order is preserved.
  static Value List(Elems elems);
  /// Builds an object reference.
  static Value MakeRef(std::string class_name, int64_t oid);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_collection() const {
    return kind_ == Kind::kSet || kind_ == Kind::kBag || kind_ == Kind::kList;
  }
  bool is_numeric() const { return kind_ == Kind::kInt || kind_ == Kind::kReal; }

  /// Accessors. Calling the wrong accessor for the kind throws EvalError.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsReal() const;
  /// Returns the numeric content widened to double (kInt or kReal).
  double AsNumeric() const;
  const std::string& AsStr() const;
  const Fields& AsTuple() const;
  const Elems& AsElems() const;
  const Ref& AsRef() const;

  /// Looks up a record field; throws EvalError if absent or not a tuple.
  const Value& Field(const std::string& name) const;
  /// Returns true iff this is a tuple that has the named field.
  bool HasField(const std::string& name) const;

  /// Total order over all values: kinds rank first, then contents. Numbers
  /// of either kind compare by exact numeric value (3 == 3.0, and ints
  /// beyond 2^53 stay distinct); NaN ranks above every other number and
  /// equal to any NaN; -0.0 == 0.0. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  bool operator==(const Value& other) const { return Compare(*this, other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(*this, other) < 0; }

  /// Structural hash, consistent with operator==.
  size_t Hash() const;

  /// Renders the value in a readable literal-like syntax, e.g.
  /// `{<name="Ann", age=7>, <name="Bo", age=9>}`.
  std::string ToString() const;

 private:
  Kind kind_;
  bool b_ = false;
  int64_t i_ = 0;
  double r_ = 0.0;
  std::string s_;
  std::shared_ptr<const Fields> tuple_;
  std::shared_ptr<const Elems> elems_;
  Ref ref_;
};

/// Puts `elems` into canonical collection order: sorted by Value::Compare,
/// compare-equal values in their input (stream) order. With `dedup` only
/// the first of each run of compare-equal values is kept (a set).
void CanonicalizeElems(Elems* elems, bool dedup);

/// A slice [first, last) of a canonical run, consumed by MergeCanonicalRuns.
struct ElemSlice {
  Value* first;
  Value* last;
};

/// Appends the k-way merge of canonical `runs` to *out, moving each value
/// out of its run. Ties go to the lower run index, so merging the runs of
/// consecutive stream pieces in stream order gives exactly what
/// CanonicalizeElems gives for the whole stream. With `dedup`, a value
/// compare-equal to the one this call appended last is dropped.
void MergeCanonicalRuns(const std::vector<ElemSlice>& runs, bool dedup,
                        Elems* out);

/// Hash functor so Value can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Rough byte footprint of a materialized value: payload (strings, element
/// headers, field names) rather than exact allocator overhead. Used by the
/// session memory budget and the per-query memory tracker — a consistent
/// estimate, not an accounting of malloc reality. Shared substructure is
/// counted every time it appears (a budget should see the logical size).
size_t EstimateValueBytes(const Value& v);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_VALUE_H_
