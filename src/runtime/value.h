// Runtime value model for the lambdadb query engine.
//
// Values are the data the engine computes over: the primitives of the monoid
// calculus (booleans, integers, reals, strings), the NULL value introduced by
// outer-joins and outer-unnests (Fegaras, SIGMOD'98, Section 3), records
// ("tuples" in the paper), the three collection kinds (set, bag, list), and
// references to objects stored in class extents (the OODB part).
//
// A Value is 16 bytes: 14 payload bytes, a length/flag byte and a kind byte.
// NULL, bool, int, real, refs and strings of up to kInlineStrMax (14) bytes
// live inline. Longer strings, tuples and collections live in one immutable
// heap block with an atomic intrusive reference count, so copying a Value is
// a 16-byte copy plus at most one atomic increment, and evaluators and
// morsel workers can share structure freely.
//
// A Ref is an (interned class id, oid) pair. Class names are held once, in a
// process-wide append-only table capped at kMaxClassNames names and
// kMaxClassNameBytes bytes, so no client input can grow it without bound.
//
// A tuple is a Shape (its field names and their hashes, held once and
// shared by reference count) plus its field values stored inline in the
// tuple's block. Every object of a class shares the class's shape
// (Database::Insert), and every tuple a compiled record constructor builds
// shares the shape made when the plan was compiled — so a projection can
// check "same shape as last row" with one pointer compare.
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

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ldb {

class Value;

/// Named fields of a record value, in declaration order (a construction
/// format: the tuple itself stores the names once, in its Shape).
using Fields = std::vector<std::pair<std::string, Value>>;
/// Elements of a collection value.
using Elems = std::vector<Value>;

/// Interned class name: an index into the process-wide class-name table.
using ClassId = uint32_t;

/// Caps on the class-name table. Interning a new name past either throws
/// EvalError; names already interned keep resolving.
inline constexpr size_t kMaxClassNames = 4096;
inline constexpr size_t kMaxClassNameBytes = size_t{1} << 20;

/// Returns the id of `name`, interning it on first sight. Thread-safe.
/// Throws EvalError when a new name would exceed either cap.
ClassId InternClassName(std::string_view name);
/// The name an id was interned from. Lock-free.
const std::string& ClassName(ClassId id);

/// A reference to an object living in a class extent of a Database.
struct Ref {
  ClassId class_id = 0;
  int64_t oid = 0;
  const std::string& class_name() const { return ClassName(class_id); }
};

/// The field names of a tuple, held once and shared by every tuple built
/// on it. Immutable after construction.
class Shape {
 public:
  explicit Shape(std::vector<std::string> names);

  size_t size() const { return names_.size(); }
  const std::string& name(size_t i) const { return names_[i]; }
  /// std::hash of name(i), precomputed for Value::Hash.
  size_t name_hash(size_t i) const { return hashes_[i]; }
  /// Position of the first field called `name`, or -1.
  int IndexOf(std::string_view name) const;
  /// True iff both shapes have the same names in the same order.
  bool SameNames(const Shape& other) const;

 private:
  std::vector<std::string> names_;
  std::vector<size_t> hashes_;
};
using ShapePtr = std::shared_ptr<const Shape>;

class TupleView;

/// An immutable runtime value.
class Value {
 public:
  enum class Kind : uint8_t {
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

  /// Longest string stored inline; longer ones go out of line.
  static constexpr size_t kInlineStrMax = 14;

  /// Constructs NULL.
  Value() noexcept = default;
  Value(const Value& o) noexcept : bits_(o.bits_) {
    if (heap()) rep()->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Value(Value&& o) noexcept : bits_(o.bits_) { o.bits_ = Bits{}; }
  Value& operator=(const Value& o) noexcept {
    if (o.heap()) o.rep()->refs.fetch_add(1, std::memory_order_relaxed);
    if (heap()) Release();
    bits_ = o.bits_;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      if (heap()) Release();
      bits_ = o.bits_;
      o.bits_ = Bits{};
    }
    return *this;
  }
  ~Value() {
    if (heap()) Release();
  }

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Real(double d);
  static Value Str(std::string_view s);
  /// Builds a record value from named fields (order preserved), on a new
  /// shape.
  static Value Tuple(Fields fields);
  /// Builds a tuple on `shape` with every field NULL and points `*fields`
  /// at its shape->size() field values, to be filled in by the caller
  /// before the value is copied or shared.
  static Value NewTuple(ShapePtr shape, Value** fields);
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
  /// Builds an object reference, interning the class name (InternClassName
  /// may throw).
  static Value MakeRef(std::string_view class_name, int64_t oid);
  static Value MakeRef(ClassId class_id, int64_t oid);

  Kind kind() const { return bits_.kind; }
  bool is_null() const { return bits_.kind == Kind::kNull; }
  bool is_collection() const {
    return kind() == Kind::kSet || kind() == Kind::kBag || kind() == Kind::kList;
  }
  bool is_numeric() const { return kind() == Kind::kInt || kind() == Kind::kReal; }

  /// Accessors. Calling the wrong accessor for the kind throws EvalError.
  bool AsBool() const {
    if (kind() != Kind::kBool) ThrowWrongKind("bool");
    return Load<bool>(0);
  }
  int64_t AsInt() const {
    if (kind() != Kind::kInt) ThrowWrongKind("int");
    return Load<int64_t>(0);
  }
  double AsReal() const {
    if (kind() != Kind::kReal) ThrowWrongKind("real");
    return Load<double>(0);
  }
  /// Returns the numeric content widened to double (kInt or kReal).
  double AsNumeric() const {
    if (kind() == Kind::kInt) return static_cast<double>(Load<int64_t>(0));
    if (kind() != Kind::kReal) ThrowWrongKind("numeric");
    return Load<double>(0);
  }
  /// Valid while this value (or a copy sharing its payload) lives.
  std::string_view AsStr() const {
    if (kind() != Kind::kStr) ThrowWrongKind("string");
    return StrView();
  }
  TupleView AsTuple() const;
  const Elems& AsElems() const {
    if (!is_collection()) ThrowWrongKind("collection");
    return static_cast<const ElemsRep*>(rep())->elems;
  }
  Ref AsRef() const {
    if (kind() != Kind::kRef) ThrowWrongKind("ref");
    return Ref{Load<ClassId>(8), Load<int64_t>(0)};
  }

  /// Looks up a record field; throws EvalError if absent or not a tuple.
  const Value& Field(std::string_view name) const;
  /// Returns true iff this is a tuple that has the named field.
  bool HasField(std::string_view name) const;

  /// Total order over all values: kinds rank first, then contents. Numbers
  /// of either kind compare by exact numeric value (3 == 3.0, and ints
  /// beyond 2^53 stay distinct); NaN ranks above every other number and
  /// equal to any NaN; -0.0 == 0.0; refs order by class name, then oid.
  /// Returns <0, 0, >0.
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
  friend class TupleView;
  friend size_t EstimateValueBytes(const Value& v);

  // Out-of-line payloads. Each starts with the shared reference count; the
  // owning Value's kind says which one it is.
  struct Rep {
    std::atomic<uint32_t> refs{1};
  };
  struct StrRep : Rep {  // followed by `size` chars
    size_t size = 0;
    const char* chars() const { return reinterpret_cast<const char*>(this + 1); }
  };
  struct TupleRep : Rep {  // followed by shape->size() Values
    ShapePtr shape;
    Value* fields() { return reinterpret_cast<Value*>(this + 1); }
    const Value* fields() const {
      return reinterpret_cast<const Value*>(this + 1);
    }
  };
  struct ElemsRep : Rep {
    Elems elems;
  };

  static constexpr uint8_t kHeapBit = 0x80;  // aux: payload is out of line

  // Payload layout by kind: bool, int, real and a Rep* at bytes [0, 8); a
  // ref's oid at [0, 8) and its ClassId at [8, 12); an inline string's
  // chars at [0, aux) with aux <= kInlineStrMax.
  struct Bits {
    alignas(8) char data[14] = {};
    uint8_t aux = 0;
    Kind kind = Kind::kNull;
  };

  template <typename T>
  T Load(size_t at) const {
    T t;
    std::memcpy(&t, bits_.data + at, sizeof(T));
    return t;
  }
  template <typename T>
  void Store(size_t at, T t) {
    std::memcpy(bits_.data + at, &t, sizeof(T));
  }
  bool heap() const { return (bits_.aux & kHeapBit) != 0; }
  Rep* rep() const { return Load<Rep*>(0); }
  void SetRep(Kind k, Rep* r) {
    bits_.kind = k;
    bits_.aux = kHeapBit;
    Store<Rep*>(0, r);
  }
  std::string_view StrView() const {
    if (!heap()) return std::string_view(bits_.data, bits_.aux);
    const auto* s = static_cast<const StrRep*>(rep());
    return std::string_view(s->chars(), s->size);
  }
  static Value MakeElems(Kind k, Elems elems);
  void Release() noexcept;
  [[noreturn]] void ThrowWrongKind(const char* expected) const;

  Bits bits_;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte tagged value");

/// A tuple's shape and field values, borrowed from the Value it came from
/// (valid while that Value lives). Iterating yields (name, value) pairs.
class TupleView {
 public:
  size_t size() const { return rep_->shape->size(); }
  const Shape& shape() const { return *rep_->shape; }
  const ShapePtr& shape_ptr() const { return rep_->shape; }
  const std::string& name(size_t i) const { return rep_->shape->name(i); }
  const Value& value(size_t i) const { return rep_->fields()[i]; }

  class iterator {
   public:
    iterator(const Value::TupleRep* rep, size_t i) : rep_(rep), i_(i) {}
    std::pair<const std::string&, const Value&> operator*() const {
      return {rep_->shape->name(i_), rep_->fields()[i_]};
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const Value::TupleRep* rep_;
    size_t i_;
  };
  iterator begin() const { return iterator(rep_, 0); }
  iterator end() const { return iterator(rep_, size()); }

 private:
  friend class Value;
  explicit TupleView(const Value::TupleRep* rep) : rep_(rep) {}
  const Value::TupleRep* rep_;
};

inline TupleView Value::AsTuple() const {
  if (kind() != Kind::kTuple) ThrowWrongKind("tuple");
  return TupleView(static_cast<const TupleRep*>(rep()));
}

/// Puts `elems` into canonical collection order: sorted by Value::Compare,
/// compare-equal values in their input (stream) order. With `dedup` only
/// the first of each run of compare-equal values is kept (a set). Sorts in
/// place: no second n-element value array is allocated.
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

/// Byte footprint of a materialized value: its 16 bytes plus the
/// out-of-line blocks it reaches (long strings, tuple and collection
/// blocks). Shapes are shared by every tuple built on them and are not
/// counted; a payload shared by several values is counted every time it
/// appears (a budget should see the logical size). Used by the session
/// memory budget and the per-query memory tracker.
size_t EstimateValueBytes(const Value& v);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_VALUE_H_
