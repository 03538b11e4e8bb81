// Unit tests for the runtime value model (src/runtime/value.*).

#include "src/runtime/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
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

}  // namespace
}  // namespace ldb
