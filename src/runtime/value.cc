#include "src/runtime/value.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>
#include <new>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "src/runtime/error.h"

namespace ldb {

namespace {

int KindRank(Value::Kind k) { return static_cast<int>(k); }

int CompareReals(double x, double y) {
  const bool xn = std::isnan(x), yn = std::isnan(y);
  if (xn || yn) return xn == yn ? 0 : (xn ? 1 : -1);
  return x < y ? -1 : x > y ? 1 : 0;
}

// An int against a double, exactly: neither side is rounded.
int CompareIntReal(int64_t i, double d) {
  if (std::isnan(d)) return -1;
  if (d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  const double t = std::trunc(d);  // in [-2^63, 2^63): fits an int64
  const int64_t ti = static_cast<int64_t>(t);
  if (i != ti) return i < ti ? -1 : 1;
  return d > t ? -1 : d < t ? 1 : 0;
}

size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// One hash per compare-equal class of numbers: an int hashes as its double,
// which equals any real it compares equal to; every NaN and both zeros
// hash alike.
size_t HashNumber(double d) {
  if (std::isnan(d)) return HashCombine(0x7f, 0x7ff8);
  if (d == 0) d = 0.0;
  return HashCombine(0x7f, std::hash<double>()(d));
}

// `elems` sorted by Compare: strictly ascending for a set, non-descending
// for a bag.
[[maybe_unused]] bool IsCanonical(const Elems& elems, bool dedup) {
  for (size_t i = 1; i < elems.size(); ++i) {
    const int c = Value::Compare(elems[i - 1], elems[i]);
    if (c > 0 || (dedup && c == 0)) return false;
  }
  return true;
}

// The process-wide class-name table. Ids index `entries`; an entry is
// published (release) before its id can be handed out, and never changes
// or moves afterwards, so ClassName is one acquire load. Interning takes
// the mutex. The table is never destroyed: values in static storage may
// name classes until the process exits.
struct ClassEntry {
  std::string name;
  size_t hash;  // std::hash of name, for Value::Hash
};

class ClassNameTable {
 public:
  ClassNameTable() { Intern(""); }  // id 0: the class of a default Ref

  ClassId Intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    if (count_ >= kMaxClassNames || bytes_ + name.size() > kMaxClassNameBytes) {
      throw EvalError("class-name table full (" +
                      std::to_string(kMaxClassNames) + " names, " +
                      std::to_string(kMaxClassNameBytes) +
                      " bytes): cannot intern a new class name");
    }
    const ClassId id = static_cast<ClassId>(count_++);
    bytes_ += name.size();
    auto* e = new ClassEntry{std::string(name), std::hash<std::string_view>()(name)};
    entries_[id].store(e, std::memory_order_release);
    ids_.emplace(e->name, id);
    return id;
  }

  const ClassEntry& Get(ClassId id) const {
    const ClassEntry* e =
        id < kMaxClassNames ? entries_[id].load(std::memory_order_acquire)
                            : nullptr;
    if (e == nullptr) throw InternalError("unknown class id " + std::to_string(id));
    return *e;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string_view, ClassId> ids_;  // keys view entries
  size_t count_ = 0;
  size_t bytes_ = 0;
  std::atomic<const ClassEntry*> entries_[kMaxClassNames] = {};
};

ClassNameTable& Classes() {
  static ClassNameTable* table = new ClassNameTable;
  return *table;
}

}  // namespace

void CanonicalizeElems(Elems* elems, bool dedup) {
  Elems& e = *elems;
  const size_t n = e.size();
  size_t in_order = 1;  // length of the sorted prefix
  while (in_order < n && Value::Compare(e[in_order - 1], e[in_order]) <= 0) {
    ++in_order;
  }
  if (in_order < n) {
    // Sort a permutation (stable: compare-equal values keep stream order),
    // then apply it in place by following its cycles: each value moves
    // once and no second value array is allocated. perm[i] is the source
    // of slot i; a placed slot is marked perm[i] == i.
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    std::stable_sort(perm.begin(), perm.end(), [&e](size_t a, size_t b) {
      return Value::Compare(e[a], e[b]) < 0;
    });
    for (size_t i = 0; i < n; ++i) {
      if (perm[i] == i) continue;
      Value held = std::move(e[i]);
      size_t j = i;
      while (perm[j] != i) {
        const size_t src = perm[j];
        e[j] = std::move(e[src]);
        perm[j] = j;
        j = src;
      }
      e[j] = std::move(held);
      perm[j] = j;
    }
  }
  if (dedup) {  // sorted: keep the first of each compare-equal run
    e.erase(std::unique(e.begin(), e.end(),
                        [](const Value& a, const Value& b) {
                          return Value::Compare(a, b) == 0;
                        }),
            e.end());
  }
}

void MergeCanonicalRuns(const std::vector<ElemSlice>& runs, bool dedup,
                        Elems* out) {
  std::vector<ElemSlice> live;
  size_t total = 0;
  for (const ElemSlice& r : runs) {
    if (r.first == r.last) continue;
    live.push_back(r);
    total += static_cast<size_t>(r.last - r.first);
  }
  if (live.empty()) return;
  out->reserve(out->size() + total);
  const size_t base = out->size();
  auto emit = [&](Value& v) {
    if (dedup && out->size() > base && Value::Compare(out->back(), v) == 0) {
      return;
    }
    out->push_back(std::move(v));
  };
  // A min-heap of live-run indices keyed on (head value, run index): the
  // lower run wins a tie, which keeps compare-equal values in stream order.
  auto before = [&live](size_t a, size_t b) {
    const int c = Value::Compare(*live[a].first, *live[b].first);
    return c != 0 ? c < 0 : a < b;
  };
  std::vector<size_t> heap(live.size());
  std::iota(heap.begin(), heap.end(), size_t{0});
  auto sift_down = [&](size_t i) {
    for (;;) {
      size_t m = 2 * i + 1;
      if (m >= heap.size()) return;
      if (m + 1 < heap.size() && before(heap[m + 1], heap[m])) ++m;
      if (!before(heap[m], heap[i])) return;
      std::swap(heap[i], heap[m]);
      i = m;
    }
  };
  for (size_t i = heap.size() / 2; i-- > 0;) sift_down(i);
  while (heap.size() > 1) {
    ElemSlice& top = live[heap[0]];
    emit(*top.first++);
    if (top.first == top.last) {
      heap[0] = heap.back();
      heap.pop_back();
    }
    sift_down(0);
  }
  for (ElemSlice& last = live[heap[0]]; last.first != last.last; ++last.first) {
    emit(*last.first);
  }
}

ClassId InternClassName(std::string_view name) {
  return Classes().Intern(name);
}

const std::string& ClassName(ClassId id) { return Classes().Get(id).name; }

Shape::Shape(std::vector<std::string> names) : names_(std::move(names)) {
  hashes_.reserve(names_.size());
  for (const std::string& n : names_) hashes_.push_back(std::hash<std::string>()(n));
}

int Shape::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

bool Shape::SameNames(const Shape& other) const {
  return this == &other || names_ == other.names_;
}

Value Value::Bool(bool b) {
  Value v;
  v.bits_.kind = Kind::kBool;
  v.Store<bool>(0, b);
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.bits_.kind = Kind::kInt;
  v.Store<int64_t>(0, i);
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.bits_.kind = Kind::kReal;
  v.Store<double>(0, d);
  return v;
}

Value Value::Str(std::string_view s) {
  Value v;
  if (s.size() <= kInlineStrMax) {
    v.bits_.kind = Kind::kStr;
    v.bits_.aux = static_cast<uint8_t>(s.size());
    if (!s.empty()) std::memcpy(v.bits_.data, s.data(), s.size());
    return v;
  }
  void* mem = ::operator new(sizeof(StrRep) + s.size());
  auto* r = new (mem) StrRep;
  r->size = s.size();
  std::memcpy(reinterpret_cast<char*>(r + 1), s.data(), s.size());
  v.SetRep(Kind::kStr, r);
  return v;
}

Value Value::NewTuple(ShapePtr shape, Value** fields) {
  const size_t n = shape->size();
  void* mem = ::operator new(sizeof(TupleRep) + n * sizeof(Value));
  auto* r = new (mem) TupleRep;
  r->shape = std::move(shape);
  for (size_t i = 0; i < n; ++i) new (r->fields() + i) Value();
  Value v;
  v.SetRep(Kind::kTuple, r);
  *fields = r->fields();
  return v;
}

Value Value::Tuple(Fields fields) {
  std::vector<std::string> names;
  names.reserve(fields.size());
  for (auto& f : fields) names.push_back(std::move(f.first));
  Value* out;
  Value v = NewTuple(std::make_shared<const Shape>(std::move(names)), &out);
  for (size_t i = 0; i < fields.size(); ++i) out[i] = std::move(fields[i].second);
  return v;
}

Value Value::MakeElems(Kind k, Elems elems) {
  auto* r = new ElemsRep;
  r->elems = std::move(elems);
  Value v;
  v.SetRep(k, r);
  return v;
}

Value Value::Set(Elems elems) {
  CanonicalizeElems(&elems, /*dedup=*/true);
  return SetFromCanonical(std::move(elems));
}

Value Value::Bag(Elems elems) {
  CanonicalizeElems(&elems, /*dedup=*/false);
  return BagFromCanonical(std::move(elems));
}

Value Value::SetFromCanonical(Elems elems) {
#ifndef NDEBUG
  LDB_INTERNAL_CHECK(IsCanonical(elems, /*dedup=*/true),
                     "set elements are not canonical");
#endif
  return MakeElems(Kind::kSet, std::move(elems));
}

Value Value::BagFromCanonical(Elems elems) {
#ifndef NDEBUG
  LDB_INTERNAL_CHECK(IsCanonical(elems, /*dedup=*/false),
                     "bag elements are not canonical");
#endif
  return MakeElems(Kind::kBag, std::move(elems));
}

Value Value::List(Elems elems) { return MakeElems(Kind::kList, std::move(elems)); }

Value Value::MakeRef(std::string_view class_name, int64_t oid) {
  return MakeRef(InternClassName(class_name), oid);
}

Value Value::MakeRef(ClassId class_id, int64_t oid) {
  Value v;
  v.bits_.kind = Kind::kRef;
  v.Store<int64_t>(0, oid);
  v.Store<ClassId>(8, class_id);
  return v;
}

void Value::Release() noexcept {
  Rep* r = rep();
  // The sole owner frees without a read-modify-write: nobody else can
  // reach the block to take a new reference.
  if (r->refs.load(std::memory_order_acquire) != 1 &&
      r->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  switch (kind()) {
    case Kind::kStr: {
      auto* s = static_cast<StrRep*>(r);
      s->~StrRep();
      ::operator delete(s);
      return;
    }
    case Kind::kTuple: {
      auto* t = static_cast<TupleRep*>(r);
      for (size_t i = t->shape->size(); i-- > 0;) t->fields()[i].~Value();
      t->~TupleRep();
      ::operator delete(t);
      return;
    }
    default:
      delete static_cast<ElemsRep*>(r);
      return;
  }
}

void Value::ThrowWrongKind(const char* expected) const {
  throw EvalError(std::string("expected ") + expected + ", got " + ToString());
}

const Value& Value::Field(std::string_view name) const {
  TupleView t = AsTuple();
  const int i = t.shape().IndexOf(name);
  if (i < 0) {
    throw EvalError("tuple has no attribute '" + std::string(name) + "': " +
                    ToString());
  }
  return t.value(static_cast<size_t>(i));
}

bool Value::HasField(std::string_view name) const {
  return kind() == Kind::kTuple && AsTuple().shape().IndexOf(name) >= 0;
}

int Value::Compare(const Value& a, const Value& b) {
  // Numbers of either kind compare by exact value so that 3 == 3.0;
  // everything else ranks by kind first.
  if (a.is_numeric() && b.is_numeric()) {
    if (a.kind() == Kind::kInt) {
      const int64_t ai = a.Load<int64_t>(0);
      if (b.kind() == Kind::kInt) {
        const int64_t bi = b.Load<int64_t>(0);
        return ai < bi ? -1 : ai > bi ? 1 : 0;
      }
      return CompareIntReal(ai, b.Load<double>(0));
    }
    if (b.kind() == Kind::kInt) {
      return -CompareIntReal(b.Load<int64_t>(0), a.Load<double>(0));
    }
    return CompareReals(a.Load<double>(0), b.Load<double>(0));
  }
  if (a.kind() != b.kind()) return KindRank(a.kind()) < KindRank(b.kind()) ? -1 : 1;
  switch (a.kind()) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return (a.Load<bool>(0) ? 1 : 0) - (b.Load<bool>(0) ? 1 : 0);
    case Kind::kInt:
    case Kind::kReal:
      return 0;  // handled above
    case Kind::kStr:
      return a.StrView().compare(b.StrView());
    case Kind::kTuple: {
      const TupleView ta = a.AsTuple();
      const TupleView tb = b.AsTuple();
      const bool same_shape = &ta.shape() == &tb.shape();
      size_t n = std::min(ta.size(), tb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = same_shape ? 0 : ta.name(i).compare(tb.name(i));
        if (c != 0) return c;
        c = Compare(ta.value(i), tb.value(i));
        if (c != 0) return c;
      }
      if (ta.size() != tb.size()) return ta.size() < tb.size() ? -1 : 1;
      return 0;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      const Elems& ea = a.AsElems();
      const Elems& eb = b.AsElems();
      size_t n = std::min(ea.size(), eb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(ea[i], eb[i]);
        if (c != 0) return c;
      }
      if (ea.size() != eb.size()) return ea.size() < eb.size() ? -1 : 1;
      return 0;
    }
    case Kind::kRef: {
      const Ref ra = a.AsRef(), rb = b.AsRef();
      if (ra.class_id != rb.class_id) {
        return ra.class_name().compare(rb.class_name());
      }
      if (ra.oid != rb.oid) return ra.oid < rb.oid ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(kind()) * 0x9e3779b9;
  switch (kind()) {
    case Kind::kNull:
      return h;
    case Kind::kBool:
      return HashCombine(h, Load<bool>(0) ? 1 : 2);
    case Kind::kInt:
      return HashNumber(static_cast<double>(Load<int64_t>(0)));
    case Kind::kReal:
      return HashNumber(Load<double>(0));
    case Kind::kStr:
      return HashCombine(h, std::hash<std::string_view>()(StrView()));
    case Kind::kTuple: {
      const TupleView t = AsTuple();
      for (size_t i = 0; i < t.size(); ++i) {
        h = HashCombine(h, t.shape().name_hash(i));
        h = HashCombine(h, t.value(i).Hash());
      }
      return h;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      for (const Value& v : AsElems()) h = HashCombine(h, v.Hash());
      return h;
    }
    case Kind::kRef: {
      const Ref r = AsRef();
      h = HashCombine(h, Classes().Get(r.class_id).hash);
      return HashCombine(h, std::hash<int64_t>()(r.oid));
    }
  }
  return h;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case Kind::kNull:
      os << "NULL";
      break;
    case Kind::kBool:
      os << (Load<bool>(0) ? "true" : "false");
      break;
    case Kind::kInt:
      os << Load<int64_t>(0);
      break;
    case Kind::kReal:
      os << Load<double>(0);
      break;
    case Kind::kStr:
      os << '"' << StrView() << '"';
      break;
    case Kind::kTuple: {
      os << '<';
      bool first = true;
      for (const auto& [n, v] : AsTuple()) {
        if (!first) os << ", ";
        first = false;
        os << n << '=' << v.ToString();
      }
      os << '>';
      break;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      const Kind k = kind();
      const char* open = k == Kind::kSet ? "{" : k == Kind::kBag ? "{|" : "[";
      const char* close = k == Kind::kSet ? "}" : k == Kind::kBag ? "|}" : "]";
      os << open;
      bool first = true;
      for (const Value& v : AsElems()) {
        if (!first) os << ", ";
        first = false;
        os << v.ToString();
      }
      os << close;
      break;
    }
    case Kind::kRef: {
      const Ref r = AsRef();
      os << r.class_name() << '#' << r.oid;
      break;
    }
  }
  return os.str();
}

size_t EstimateValueBytes(const Value& v) {
  size_t bytes = sizeof(Value);
  if (!v.heap()) return bytes;
  switch (v.kind()) {
    case Value::Kind::kStr:
      return bytes + sizeof(Value::StrRep) + v.StrView().size();
    case Value::Kind::kTuple: {
      bytes += sizeof(Value::TupleRep);
      const TupleView t = v.AsTuple();
      for (size_t i = 0; i < t.size(); ++i) bytes += EstimateValueBytes(t.value(i));
      return bytes;
    }
    default:
      bytes += sizeof(Value::ElemsRep);
      for (const Value& elem : v.AsElems()) bytes += EstimateValueBytes(elem);
      return bytes;
  }
}

}  // namespace ldb
