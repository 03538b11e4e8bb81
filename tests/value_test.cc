// Unit tests for the runtime value model (src/runtime/value.*).

#include "src/runtime/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/error.h"
#include "src/runtime/serialize.h"

namespace ldb {
namespace {

TEST(ValueTest, PrimitivesRoundTrip) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Str("hi").AsStr(), "hi");
}

TEST(ValueTest, WrongAccessorThrows) {
  EXPECT_THROW(Value::Int(1).AsBool(), EvalError);
  EXPECT_THROW(Value::Str("x").AsInt(), EvalError);
  EXPECT_THROW(Value::Null().AsElems(), EvalError);
  EXPECT_THROW(Value::Bool(true).AsTuple(), EvalError);
}

TEST(ValueTest, NumericWidening) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Real(3.5).AsNumeric(), 3.5);
  EXPECT_THROW(Value::Str("3").AsNumeric(), EvalError);
}

TEST(ValueTest, IntAndRealCompareNumerically) {
  EXPECT_EQ(Value::Int(3), Value::Real(3.0));
  EXPECT_LT(Value::Int(2), Value::Real(2.5));
  // Equal values must hash equal.
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
}

TEST(ValueTest, TupleFieldAccess) {
  Value t = Value::Tuple({{"a", Value::Int(1)}, {"b", Value::Str("x")}});
  EXPECT_EQ(t.Field("a"), Value::Int(1));
  EXPECT_EQ(t.Field("b"), Value::Str("x"));
  EXPECT_TRUE(t.HasField("a"));
  EXPECT_FALSE(t.HasField("c"));
  EXPECT_THROW(t.Field("c"), EvalError);
}

TEST(ValueTest, SetIsSortedAndDeduplicated) {
  Value s = Value::Set({Value::Int(3), Value::Int(1), Value::Int(3), Value::Int(2)});
  ASSERT_EQ(s.AsElems().size(), 3u);
  EXPECT_EQ(s.AsElems()[0], Value::Int(1));
  EXPECT_EQ(s.AsElems()[1], Value::Int(2));
  EXPECT_EQ(s.AsElems()[2], Value::Int(3));
}

TEST(ValueTest, SetEqualityIsOrderInsensitive) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(1)});
  EXPECT_EQ(a, b);
}

TEST(ValueTest, BagKeepsDuplicates) {
  Value b = Value::Bag({Value::Int(2), Value::Int(1), Value::Int(2)});
  ASSERT_EQ(b.AsElems().size(), 3u);
  EXPECT_EQ(b.AsElems()[0], Value::Int(1));
  EXPECT_EQ(b.AsElems()[2], Value::Int(2));
}

TEST(ValueTest, BagAndSetWithSameElementsDiffer) {
  Value s = Value::Set({Value::Int(1)});
  Value b = Value::Bag({Value::Int(1)});
  EXPECT_NE(s, b);
}

TEST(ValueTest, ListPreservesOrder) {
  Value l = Value::List({Value::Int(2), Value::Int(1)});
  EXPECT_EQ(l.AsElems()[0], Value::Int(2));
  EXPECT_NE(l, Value::List({Value::Int(1), Value::Int(2)}));
}

TEST(ValueTest, NestedStructuralEquality) {
  Value a = Value::Set({Value::Tuple({{"x", Value::Int(1)}}),
                        Value::Tuple({{"x", Value::Int(2)}})});
  Value b = Value::Set({Value::Tuple({{"x", Value::Int(2)}}),
                        Value::Tuple({{"x", Value::Int(1)}})});
  EXPECT_EQ(a, b);
}

TEST(ValueTest, RefEqualityByClassAndOid) {
  EXPECT_EQ(Value::MakeRef("Employee", 3), Value::MakeRef("Employee", 3));
  EXPECT_NE(Value::MakeRef("Employee", 3), Value::MakeRef("Employee", 4));
  EXPECT_NE(Value::MakeRef("Employee", 3), Value::MakeRef("Manager", 3));
}

TEST(ValueTest, CompareTotalOrderAcrossKinds) {
  // Null < bool < numerics < string (by Kind rank).
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::Str(""));
}

TEST(ValueTest, ToStringRendersReadably) {
  Value v = Value::Set({Value::Tuple({{"n", Value::Str("a")}})});
  EXPECT_EQ(v.ToString(), "{<n=\"a\">}");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::MakeRef("C", 7).ToString(), "C#7");
  EXPECT_EQ(Value::Bag({Value::Int(1)}).ToString(), "{|1|}");
  EXPECT_EQ(Value::List({Value::Int(1)}).ToString(), "[1]");
}

TEST(ValueTest, HashConsistentWithEquality) {
  Value a = Value::Set({Value::Int(1), Value::Int(2)});
  Value b = Value::Set({Value::Int(2), Value::Int(1), Value::Int(2)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueTest, EmptyCollections) {
  EXPECT_TRUE(Value::Set({}).AsElems().empty());
  EXPECT_NE(Value::Set({}), Value::Bag({}));
  EXPECT_EQ(Value::Set({}), Value::Set({}));
}

TEST(ValueTest, TupleFieldOrderMattersForEquality) {
  Value a = Value::Tuple({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  Value b = Value::Tuple({{"y", Value::Int(2)}, {"x", Value::Int(1)}});
  EXPECT_NE(a, b);  // records are positional-with-names, like the calculus
}

TEST(ValueTest, NaNIsOrderedAboveEveryNumber) {
  // A total order: NaN equals NaN (either sign) and ranks above +inf, the
  // way PostgreSQL orders it, so it is no longer "equal" to every number.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value::Real(nan), Value::Real(nan));
  EXPECT_EQ(Value::Real(nan), Value::Real(-nan));
  EXPECT_LT(Value::Real(inf), Value::Real(nan));
  EXPECT_LT(Value::Int(std::numeric_limits<int64_t>::max()), Value::Real(nan));
  EXPECT_LT(Value::Int(3), Value::Real(nan));
  EXPECT_NE(Value::Real(nan), Value::Int(3));
  EXPECT_EQ(Value::Real(nan).Hash(), Value::Real(-nan).Hash());
  EXPECT_EQ(Value::Real(-0.0), Value::Real(0.0));
  EXPECT_EQ(Value::Real(-0.0).Hash(), Value::Int(0).Hash());
}

TEST(ValueTest, IntsCompareExactly) {
  // Not through double: 2^53 + 1 rounds to 2^53 there.
  const int64_t big = int64_t{1} << 53;
  EXPECT_LT(Value::Int(big), Value::Int(big + 1));
  EXPECT_NE(Value::Int(big + 1), Value::Int(big));
  EXPECT_EQ(Value::Int(big), Value::Real(0x1p53));
    EXPECT_LT(Value::Real(0x1p53), Value::Int(big + 1));
  EXPECT_EQ(Value::Int(big).Hash(), Value::Real(0x1p53).Hash());
  EXPECT_LT(Value::Int(2), Value::Real(2.5));
  EXPECT_LT(Value::Real(-2.5), Value::Int(-2));
  EXPECT_LT(Value::Int(std::numeric_limits<int64_t>::max()), Value::Real(0x1p63));
  EXPECT_EQ(Value::Int(std::numeric_limits<int64_t>::min()), Value::Real(-0x1p63));
  EXPECT_LT(Value::Real(-std::numeric_limits<double>::infinity()),
            Value::Int(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(Value::Set({Value::Int(big), Value::Int(big + 1)}).AsElems().size(),
            2u);
}

TEST(ValueTest, CompareIsATotalOrderOnMixedNumbers) {
  // Antisymmetric and transitive over every triple, NaNs and zeros included,
  // and Hash agrees with equality.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  const std::vector<Value> v = {
      Value::Real(nan),        Value::Real(-nan),    Value::Real(-0.0),
      Value::Real(0.0),        Value::Int(0),        Value::Int(3),
      Value::Real(3.0),        Value::Real(2.5),     Value::Int(big),
      Value::Int(big + 1),     Value::Real(0x1p53),  Value::Real(-1e300),
      Value::Real(1.0 / 0.0),  Value::Int(-7)};
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Value& a : v) {
    for (const Value& b : v) {
      EXPECT_EQ(sign(Value::Compare(a, b)), -sign(Value::Compare(b, a)))
          << a.ToString() << " vs " << b.ToString();
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString();
      }
      for (const Value& c : v) {
        if (Value::Compare(a, b) <= 0 && Value::Compare(b, c) <= 0) {
          EXPECT_LE(Value::Compare(a, c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST(ValueTest, SetWithNaNsIsCanonical) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Value s = Value::Set(
      {Value::Real(nan), Value::Int(1), Value::Real(-nan), Value::Int(2)});
  ASSERT_EQ(s.AsElems().size(), 3u);
  EXPECT_EQ(s.ToString(), "{1, 2, nan}");  // the first NaN in stream order
  EXPECT_EQ(s, Value::SetFromCanonical(s.AsElems()));
  EXPECT_EQ(s, Value::Set({Value::Int(2), Value::Real(-nan), Value::Int(1)}));
}

TEST(ValueTest, CompareEqualValuesKeepStreamOrder) {
  // The first of compare-equal values in stream order is the one a set
  // keeps, and a bag keeps them all in stream order.
  Value s = Value::Set({Value::Int(3), Value::Real(-0.0), Value::Real(3.0),
                        Value::Int(0), Value::Real(0.0)});
  EXPECT_EQ(s.ToString(), "{-0, 3}");
  EXPECT_EQ(s.AsElems()[1].kind(), Value::Kind::kInt);
  Value t = Value::Set({Value::Real(3.0), Value::Int(3)});
  EXPECT_EQ(t.AsElems()[0].kind(), Value::Kind::kReal);
  Value b = Value::Bag({Value::Real(3.0), Value::Int(1), Value::Int(3),
                        Value::Real(0.0), Value::Real(-0.0)});
  EXPECT_EQ(b.ToString(), "{|0, -0, 1, 3, 3|}");
  EXPECT_EQ(b.AsElems()[3].kind(), Value::Kind::kReal);
  EXPECT_EQ(b.AsElems()[4].kind(), Value::Kind::kInt);
}

// Random numbers from a small domain rich in compare-equal twins.
Value TwinNumber(std::mt19937& rng) {
  const int k = static_cast<int>(rng() % 8);
  const int n = static_cast<int>(rng() % 6);
  switch (k) {
    case 0: return Value::Int(n);
    case 1: return Value::Real(n);
    case 2: return Value::Real(n + 0.5);
    case 3: return Value::Real(n == 0 ? -0.0 : -n);
    case 4: return Value::Real(std::nan("") * (n % 2 ? -1 : 1));
    case 5: return Value::Str(std::string(1, static_cast<char>('a' + n)));
    case 6: return Value::Tuple({{"k", Value::Int(n % 3)}, {"v", Value::Real(n % 2)}});
    default: return Value::Int(-n);
  }
}

TEST(ValueTest, MergedRunsEqualOneCanonicalization) {
  // Canonicalizing consecutive pieces of a stream and merging them in
  // stream order gives exactly (as text, so the representatives count)
  // what canonicalizing the whole stream gives.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    for (bool dedup : {true, false}) {
      Elems stream;
      std::vector<Elems> runs(1 + rng() % 6);
      for (Elems& run : runs) {
        const size_t n = rng() % 12;  // some runs stay empty
        for (size_t i = 0; i < n; ++i) run.push_back(TwinNumber(rng));
        stream.insert(stream.end(), run.begin(), run.end());
        CanonicalizeElems(&run, dedup);
      }
      CanonicalizeElems(&stream, dedup);
      std::vector<ElemSlice> slices;
      for (Elems& run : runs) slices.push_back({run.data(), run.data() + run.size()});
      Elems merged;
      MergeCanonicalRuns(slices, dedup, &merged);
      EXPECT_EQ(ValueToText(Value::List(merged)),
                ValueToText(Value::List(stream)))
          << "trial " << trial << (dedup ? " (set)" : " (bag)");
    }
  }
}

// A value that prints differently from every compare-equal twin: the text
// tells numbers apart by kind and sign, and a tuple by its shape's address.
std::string Identity(const Value& v) {
  std::string id = ValueToText(v);
  if (v.kind() == Value::Kind::kTuple) {
    id += "@" + std::to_string(reinterpret_cast<uintptr_t>(&v.AsTuple().shape()));
  }
  return id;
}

TEST(ValueTest, InPlaceCanonicalizationMatchesStableSortReference) {
  // Ties of every kind: 3 / 3.0, -0.0 / 0.0, NaNs of either sign, and equal
  // tuples on distinct shapes. The reference is std::stable_sort on
  // (value, stream index), then the first of each equal run for a set.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Value> pool = {
      Value::Int(3), Value::Real(3.0), Value::Real(-0.0), Value::Real(0.0),
      Value::Int(0), Value::Real(nan), Value::Real(-nan), Value::Int(-7),
      Value::Str("short"), Value::Str("a string longer than fourteen"),
      Value::Tuple({{"k", Value::Int(1)}}), Value::Tuple({{"k", Value::Real(1.0)}}),
      Value::Tuple({{"k", Value::Int(1)}}), Value::Null()};
  std::mt19937 rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Elems stream;
    const size_t n = rng() % 40;
    for (size_t i = 0; i < n; ++i) stream.push_back(pool[rng() % pool.size()]);
    for (bool dedup : {false, true}) {
      std::vector<size_t> order(stream.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return Value::Compare(stream[a], stream[b]) < 0;
      });
      std::vector<std::string> want;
      for (size_t k = 0; k < order.size(); ++k) {
        if (dedup && k > 0 &&
            Value::Compare(stream[order[k - 1]], stream[order[k]]) == 0) {
          continue;
        }
        want.push_back(Identity(stream[order[k]]));
      }
      Elems got = stream;
      CanonicalizeElems(&got, dedup);
      std::vector<std::string> have;
      for (const Value& v : got) have.push_back(Identity(v));
      EXPECT_EQ(have, want) << "trial " << trial << (dedup ? " (set)" : " (bag)");
    }
  }
}

TEST(ValueTest, InlineAndOutOfLineStringsBehaveAlike) {
  // 13 and 14 bytes are stored inline, 15 and 16 out of line; the layout
  // must not show in order, equality, hash or text.
  std::vector<std::string> texts;
  for (size_t len = 13; len <= 16; ++len) {
    texts.push_back(std::string(len, 'x'));
    texts.push_back(std::string(len - 1, 'x') + "a");
  }
  for (const std::string& a : texts) {
    const Value va = Value::Str(a);
    EXPECT_EQ(va.AsStr(), a);
    const Value copy = va;
    const Value decoded = ValueFromText(ValueToText(va));
    EXPECT_EQ(copy, va);
    EXPECT_EQ(decoded, va);
    EXPECT_EQ(decoded.Hash(), va.Hash());
    EXPECT_EQ(va.Hash(), Value::Str(std::string(a)).Hash());
    EXPECT_EQ(va.ToString(), "\"" + a + "\"");
    for (const std::string& b : texts) {
      const int want = a.compare(b);
      const int got = Value::Compare(va, Value::Str(b));
      EXPECT_EQ(got < 0, want < 0) << a << " vs " << b;
      EXPECT_EQ(got == 0, want == 0) << a << " vs " << b;
    }
  }
}

TEST(ValueTest, RefsOrderByClassNameNotInternOrder) {
  const ClassId zeta = InternClassName("ZetaRefOrder");
  const ClassId alpha = InternClassName("AlphaRefOrder");
  ASSERT_LT(zeta, alpha);  // interned first
  EXPECT_LT(Value::MakeRef("AlphaRefOrder", 9), Value::MakeRef("ZetaRefOrder", 0));
  EXPECT_LT(Value::MakeRef(alpha, 1), Value::MakeRef(alpha, 2));
  EXPECT_EQ(Value::MakeRef("AlphaRefOrder", 4), Value::MakeRef(alpha, 4));
  EXPECT_EQ(Value::MakeRef("AlphaRefOrder", 4).Hash(), Value::MakeRef(alpha, 4).Hash());
  EXPECT_EQ(Value::MakeRef(zeta, 3).AsRef().class_name(), "ZetaRefOrder");
  EXPECT_EQ(InternClassName("ZetaRefOrder"), zeta);
}

TEST(ValueTest, TuplesOnDistinctShapesCompareByNames) {
  Value a = Value::Tuple({{"x", Value::Int(1)}, {"y", Value::Str("s")}});
  Value b = Value::Tuple({{"x", Value::Real(1.0)}, {"y", Value::Str("s")}});
  ASSERT_NE(&a.AsTuple().shape(), &b.AsTuple().shape());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  Value* out;
  Value c = Value::NewTuple(a.AsTuple().shape_ptr(), &out);
  out[0] = Value::Int(1);
  out[1] = Value::Str("s");
  EXPECT_EQ(&c.AsTuple().shape(), &a.AsTuple().shape());
  EXPECT_EQ(c, b);
  EXPECT_EQ(c.Hash(), b.Hash());
  Value renamed = Value::Tuple({{"x", Value::Int(1)}, {"z", Value::Str("s")}});
  EXPECT_NE(a, renamed);
  EXPECT_LT(a, renamed);  // "y" < "z"
  EXPECT_NE(a, Value::Tuple({{"x", Value::Int(1)}}));
}

// One value of every kind, with out-of-line payloads where the kind has one.
std::vector<Value> OneOfEachKind() {
  return {Value::Null(), Value::Bool(true), Value::Int(-5), Value::Real(2.5),
          Value::Str("inline"), Value::Str("an out-of-line string payload"),
          Value::Tuple({{"a", Value::Str("a long field value, out of line")}}),
          Value::Set({Value::Int(2), Value::Int(1)}),
          Value::Bag({Value::Str("b"), Value::Str("b")}),
          Value::List({Value::Tuple({{"n", Value::Int(1)}})}),
          Value::MakeRef("CopyKindsClass", 7)};
}

TEST(ValueTest, CopyMoveAndSelfAssignmentForEveryKind) {
  for (const Value& v : OneOfEachKind()) {
    const std::string text = ValueToText(v);
    Value copy(v);
    EXPECT_EQ(ValueToText(copy), text);
    Value assigned;
    assigned = v;
    EXPECT_EQ(ValueToText(assigned), text);
    Value moved(std::move(copy));
    EXPECT_EQ(ValueToText(moved), text);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
    Value move_assigned = Value::Str("to be replaced by a moved value");
    move_assigned = std::move(moved);
    EXPECT_EQ(ValueToText(move_assigned), text);
    Value& self = move_assigned;
    move_assigned = self;
    EXPECT_EQ(ValueToText(move_assigned), text);
    move_assigned = std::move(self);
    EXPECT_EQ(ValueToText(move_assigned), text);
    assigned = Value::Int(1);  // overwrite drops the shared payload
    EXPECT_EQ(ValueToText(v), text);
  }
}

TEST(ValueTest, SharedPayloadsSurviveConcurrentCopies) {
  // Morsel workers copy and drop the same out-of-line payloads at once;
  // the intrusive count must neither free early nor leak (the ASan job
  // runs this with leak detection on, the TSan job with race detection).
  const std::vector<Value> shared = OneOfEachKind();
  std::vector<std::string> texts;
  for (const Value& v : shared) texts.push_back(ValueToText(v));
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&shared] {
      for (int round = 0; round < 2000; ++round) {
        std::vector<Value> mine(shared.begin(), shared.end());
        Value nested = Value::List(mine);
        Value again = nested;
        mine.clear();
        nested = Value();
        EXPECT_EQ(again.AsElems().size(), shared.size());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(ValueToText(shared[i]), texts[i]);
  }
}

TEST(ValueTest, EstimateCountsOutOfLinePayloadsOnly) {
  EXPECT_EQ(EstimateValueBytes(Value::Int(1)), sizeof(Value));
  EXPECT_EQ(EstimateValueBytes(Value::Str("fourteen bytes")), sizeof(Value));
  EXPECT_GT(EstimateValueBytes(Value::Str("fifteen bytes!!")), sizeof(Value) + 15);
  const Value list = Value::List({Value::Int(1), Value::Int(2)});
  EXPECT_GT(EstimateValueBytes(list), 3 * sizeof(Value));
}

}  // namespace
}  // namespace ldb
