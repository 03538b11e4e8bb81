#include "src/runtime/value.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>

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

}  // namespace

void CanonicalizeElems(Elems* elems, bool dedup) {
  Elems& e = *elems;
  const size_t n = e.size();
  size_t in_order = 1;  // length of the sorted prefix
  while (in_order < n && Value::Compare(e[in_order - 1], e[in_order]) <= 0) {
    ++in_order;
  }
  if (in_order >= n) {  // already sorted: at most adjacent duplicates
    if (dedup) {
      e.erase(std::unique(e.begin(), e.end(),
                          [](const Value& a, const Value& b) {
                            return Value::Compare(a, b) == 0;
                          }),
              e.end());
    }
    return;
  }
  // Sort a permutation (stable: compare-equal values keep stream order),
  // then move every value into place once.
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&e](size_t a, size_t b) {
    return Value::Compare(e[a], e[b]) < 0;
  });
  Elems out;
  out.reserve(n);
  for (size_t i : perm) {
    if (dedup && !out.empty() && Value::Compare(out.back(), e[i]) == 0) continue;
    out.push_back(std::move(e[i]));
  }
  e = std::move(out);
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

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.b_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = Kind::kInt;
  v.i_ = i;
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.kind_ = Kind::kReal;
  v.r_ = d;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.kind_ = Kind::kStr;
  v.s_ = std::move(s);
  return v;
}

Value Value::Tuple(Fields fields) {
  Value v;
  v.kind_ = Kind::kTuple;
  v.tuple_ = std::make_shared<const Fields>(std::move(fields));
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
  Value v;
  v.kind_ = Kind::kSet;
  v.elems_ = std::make_shared<const Elems>(std::move(elems));
  return v;
}

Value Value::BagFromCanonical(Elems elems) {
#ifndef NDEBUG
  LDB_INTERNAL_CHECK(IsCanonical(elems, /*dedup=*/false),
                     "bag elements are not canonical");
#endif
  Value v;
  v.kind_ = Kind::kBag;
  v.elems_ = std::make_shared<const Elems>(std::move(elems));
  return v;
}

Value Value::List(Elems elems) {
  Value v;
  v.kind_ = Kind::kList;
  v.elems_ = std::make_shared<const Elems>(std::move(elems));
  return v;
}

Value Value::MakeRef(std::string class_name, int64_t oid) {
  Value v;
  v.kind_ = Kind::kRef;
  v.ref_ = Ref{std::move(class_name), oid};
  return v;
}

bool Value::AsBool() const {
  if (kind_ != Kind::kBool) throw EvalError("expected bool, got " + ToString());
  return b_;
}

int64_t Value::AsInt() const {
  if (kind_ != Kind::kInt) throw EvalError("expected int, got " + ToString());
  return i_;
}

double Value::AsReal() const {
  if (kind_ != Kind::kReal) throw EvalError("expected real, got " + ToString());
  return r_;
}

double Value::AsNumeric() const {
  if (kind_ == Kind::kInt) return static_cast<double>(i_);
  if (kind_ == Kind::kReal) return r_;
  throw EvalError("expected numeric, got " + ToString());
}

const std::string& Value::AsStr() const {
  if (kind_ != Kind::kStr) throw EvalError("expected string, got " + ToString());
  return s_;
}

const Fields& Value::AsTuple() const {
  if (kind_ != Kind::kTuple) throw EvalError("expected tuple, got " + ToString());
  return *tuple_;
}

const Elems& Value::AsElems() const {
  if (!is_collection()) throw EvalError("expected collection, got " + ToString());
  return *elems_;
}

const Ref& Value::AsRef() const {
  if (kind_ != Kind::kRef) throw EvalError("expected ref, got " + ToString());
  return ref_;
}

const Value& Value::Field(const std::string& name) const {
  for (const auto& [n, v] : AsTuple()) {
    if (n == name) return v;
  }
  throw EvalError("tuple has no attribute '" + name + "': " + ToString());
}

bool Value::HasField(const std::string& name) const {
  if (kind_ != Kind::kTuple) return false;
  for (const auto& [n, v] : *tuple_) {
    if (n == name) return true;
  }
  return false;
}

int Value::Compare(const Value& a, const Value& b) {
  // Numbers of either kind compare by exact value so that 3 == 3.0;
  // everything else ranks by kind first.
  if (a.is_numeric() && b.is_numeric()) {
    if (a.kind_ == Kind::kInt) {
      if (b.kind_ == Kind::kInt) return a.i_ < b.i_ ? -1 : a.i_ > b.i_ ? 1 : 0;
      return CompareIntReal(a.i_, b.r_);
    }
    if (b.kind_ == Kind::kInt) return -CompareIntReal(b.i_, a.r_);
    return CompareReals(a.r_, b.r_);
  }
  if (a.kind_ != b.kind_) return KindRank(a.kind_) < KindRank(b.kind_) ? -1 : 1;
  switch (a.kind_) {
    case Kind::kNull:
      return 0;
    case Kind::kBool:
      return (a.b_ ? 1 : 0) - (b.b_ ? 1 : 0);
    case Kind::kInt:
    case Kind::kReal:
      return 0;  // handled above
    case Kind::kStr:
      return a.s_.compare(b.s_);
    case Kind::kTuple: {
      const Fields& fa = *a.tuple_;
      const Fields& fb = *b.tuple_;
      size_t n = std::min(fa.size(), fb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = fa[i].first.compare(fb[i].first);
        if (c != 0) return c;
        c = Compare(fa[i].second, fb[i].second);
        if (c != 0) return c;
      }
      if (fa.size() != fb.size()) return fa.size() < fb.size() ? -1 : 1;
      return 0;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      const Elems& ea = *a.elems_;
      const Elems& eb = *b.elems_;
      size_t n = std::min(ea.size(), eb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(ea[i], eb[i]);
        if (c != 0) return c;
      }
      if (ea.size() != eb.size()) return ea.size() < eb.size() ? -1 : 1;
      return 0;
    }
    case Kind::kRef: {
      int c = a.ref_.class_name.compare(b.ref_.class_name);
      if (c != 0) return c;
      if (a.ref_.oid != b.ref_.oid) return a.ref_.oid < b.ref_.oid ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(kind_) * 0x9e3779b9;
  switch (kind_) {
    case Kind::kNull:
      return h;
    case Kind::kBool:
      return HashCombine(h, b_ ? 1 : 2);
    case Kind::kInt:
      return HashNumber(static_cast<double>(i_));
    case Kind::kReal:
      return HashNumber(r_);
    case Kind::kStr:
      return HashCombine(h, std::hash<std::string>()(s_));
    case Kind::kTuple: {
      for (const auto& [n, v] : *tuple_) {
        h = HashCombine(h, std::hash<std::string>()(n));
        h = HashCombine(h, v.Hash());
      }
      return h;
    }
    case Kind::kSet:
    case Kind::kBag:
    case Kind::kList: {
      for (const Value& v : *elems_) h = HashCombine(h, v.Hash());
      return h;
    }
    case Kind::kRef:
      h = HashCombine(h, std::hash<std::string>()(ref_.class_name));
      return HashCombine(h, std::hash<int64_t>()(ref_.oid));
  }
  return h;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kNull:
      os << "NULL";
      break;
    case Kind::kBool:
      os << (b_ ? "true" : "false");
      break;
    case Kind::kInt:
      os << i_;
      break;
    case Kind::kReal:
      os << r_;
      break;
    case Kind::kStr:
      os << '"' << s_ << '"';
      break;
    case Kind::kTuple: {
      os << '<';
      bool first = true;
      for (const auto& [n, v] : *tuple_) {
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
      const char* open = kind_ == Kind::kSet ? "{" : kind_ == Kind::kBag ? "{|" : "[";
      const char* close = kind_ == Kind::kSet ? "}" : kind_ == Kind::kBag ? "|}" : "]";
      os << open;
      bool first = true;
      for (const Value& v : *elems_) {
        if (!first) os << ", ";
        first = false;
        os << v.ToString();
      }
      os << close;
      break;
    }
    case Kind::kRef:
      os << ref_.class_name << '#' << ref_.oid;
      break;
  }
  return os.str();
}

size_t EstimateValueBytes(const Value& v) {
  size_t bytes = sizeof(Value);
  switch (v.kind()) {
    case Value::Kind::kStr:
      bytes += v.AsStr().size();
      break;
    case Value::Kind::kTuple:
      for (const auto& [name, field] : v.AsTuple())
        bytes += name.size() + EstimateValueBytes(field);
      break;
    case Value::Kind::kSet:
    case Value::Kind::kBag:
    case Value::Kind::kList:
      for (const Value& elem : v.AsElems()) bytes += EstimateValueBytes(elem);
      break;
    default:
      break;  // null / bool / int / real / ref fit in the Value header
  }
  return bytes;
}

}  // namespace ldb
