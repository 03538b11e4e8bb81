// Tests for database serialization (src/runtime/serialize.*): round-trips,
// query equivalence across reloads, and malformed-input rejection.

#include "src/runtime/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/lambdadb.h"
#include "src/workload/oo7.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

TEST(SerializeTest, TinyCompanyRoundTrips) {
  Database db = testing::TinyCompany();
  std::string dump = DumpDatabaseToString(db);
  Database loaded = LoadDatabaseFromString(dump);
  EXPECT_EQ(loaded.ObjectCount(), db.ObjectCount());
  // Dumping again yields the identical bytes (stable oids and ordering).
  EXPECT_EQ(DumpDatabaseToString(loaded), dump);
}

TEST(SerializeTest, QueriesAgreeAcrossReload) {
  Database db = testing::TinyCompany();
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  const char* queries[] = {
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments",
      "select distinct e.manager.name from e in Employees",
      "select distinct struct(E: e.name, k: count(e.children)) "
      "from e in Employees",
  };
  for (const char* q : queries) {
    EXPECT_EQ(RunOQL(loaded, q), RunOQL(db, q)) << q;
  }
}

TEST(SerializeTest, GeneratedWorkloadsRoundTrip) {
  workload::CompanyParams p;
  p.n_employees = 200;
  Database db = workload::MakeCompanyDatabase(p);
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  EXPECT_EQ(RunOQL(loaded, "count(select e from e in Employees)"),
            Value::Int(200));
  EXPECT_EQ(RunOQL(loaded, "sum(select e.salary from e in Employees)"),
            RunOQL(db, "sum(select e.salary from e in Employees)"));

  Database oo7 = workload::MakeOO7Database({});
  Database oo7_loaded = LoadDatabaseFromString(DumpDatabaseToString(oo7));
  EXPECT_EQ(oo7_loaded.ObjectCount(), oo7.ObjectCount());
}

TEST(SerializeTest, SpecialValuesSurvive) {
  Schema schema;
  schema.AddClass(ClassDecl{
      "T",
      "Ts",
      {{"s", Type::Str()},
       {"r", Type::Real()},
       {"b", Type::Bool()},
       {"maybe", Type::Int()},
       {"bag", Type::Bag(Type::Str())},
       {"seq", Type::List(Type::Int())}}});
  Database db(schema);
  db.Insert("T", Value::Tuple({
                     {"s", Value::Str("line\nbreak 7:colon \"quote\"")},
                     {"r", Value::Real(0.1)},
                     {"b", Value::Bool(true)},
                     {"maybe", Value::Null()},
                     {"bag", Value::Bag({Value::Str("a"), Value::Str("a")})},
                     {"seq", Value::List({Value::Int(2), Value::Int(1)})},
                 }));
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  const Value& obj = loaded.Deref(loaded.Extent("Ts")[0].AsRef());
  EXPECT_EQ(obj.Field("s"), Value::Str("line\nbreak 7:colon \"quote\""));
  EXPECT_EQ(obj.Field("r"), Value::Real(0.1));  // %.17g round-trips doubles
  EXPECT_TRUE(obj.Field("maybe").is_null());
  EXPECT_EQ(obj.Field("bag").AsElems().size(), 2u);
  EXPECT_EQ(obj.Field("seq"), Value::List({Value::Int(2), Value::Int(1)}));
}

TEST(SerializeTest, CrossClassRefsResolveAfterLoad) {
  Database db = testing::TinyCompany();
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  // Ann's manager is Meg — navigation must still resolve.
  EXPECT_EQ(RunOQL(loaded,
                   "select distinct e.manager.name from e in Employees "
                   "where e.name = 'Ann'"),
            Value::Set({Value::Str("Meg")}));
}

TEST(SerializeTest, MalformedInputsRejected) {
  EXPECT_THROW(LoadDatabaseFromString(""), ParseError);
  EXPECT_THROW(LoadDatabaseFromString("wrong header"), ParseError);
  EXPECT_THROW(LoadDatabaseFromString("lambdadb-dump 1\nclass"), ParseError);
  EXPECT_THROW(LoadDatabaseFromString("lambdadb-dump 1\nnonsense\n"), ParseError);
  // Truncated object section.
  Database db = testing::TinyCompany();
  std::string dump = DumpDatabaseToString(db);
  EXPECT_THROW(LoadDatabaseFromString(dump.substr(0, dump.size() / 2)),
               ParseError);
}

// `depth` lists nested one inside the next around a NULL.
std::string NestedListText(int depth) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += "l1(";
  out += "N";
  out.append(static_cast<size_t>(depth), ')');
  return out;
}

TEST(SerializeTest, DeepNestingRejectedAtTheLimit) {
  // 100 000 levels (~400 KB) used to overflow the stack of whatever thread
  // decoded them; past kMaxValueDepth the reader stops with a ParseError.
  EXPECT_THROW(ValueFromText(NestedListText(100000)), ParseError);
  EXPECT_THROW(ValueFromText(NestedListText(kMaxValueDepth + 1)), ParseError);
  std::string tuples;
  for (int i = 0; i <= kMaxValueDepth; ++i) tuples += "t1(1:a";
  EXPECT_THROW(ValueFromText(tuples), ParseError);
  // A value at the limit round-trips.
  Value deep = ValueFromText(NestedListText(kMaxValueDepth));
  EXPECT_EQ(ValueToText(deep), NestedListText(kMaxValueDepth));
  EXPECT_EQ(ValueFromText(ValueToText(deep)), deep);
  // Types nest under the same limit (a dump's attribute types).
  auto dump_with_type = [](int depth) {
    std::string type;
    for (int i = 0; i < depth; ++i) type += "S(";
    type += "i";
    type.append(static_cast<size_t>(depth), ')');
    return "lambdadb-dump 1\nclass K Ks 1\nattr 1:a " + type +
           "\nobjects K 0\nend\n";
  };
  EXPECT_THROW(LoadDatabaseFromString(dump_with_type(100000)), ParseError);
  EXPECT_THROW(LoadDatabaseFromString(dump_with_type(kMaxValueDepth + 1)),
               ParseError);
  Database db = LoadDatabaseFromString(dump_with_type(kMaxValueDepth));
  EXPECT_EQ(DumpDatabaseToString(db), dump_with_type(kMaxValueDepth));
}

TEST(SerializeTest, StreamLoadDoesNotTrustElementCounts) {
  // A stream load cannot bound a count by the bytes left, so a huge count
  // reserves only a little and the short input then fails the read.
  const std::string head =
      "lambdadb-dump 1\nclass Person Persons 2\nattr 4:name s\nattr 3:age "
      "i\nobjects Person 1\n";
  EXPECT_THROW(LoadDatabaseFromString(head + "l1000000000000(I1;)\nend\n"),
               ParseError);
  EXPECT_THROW(LoadDatabaseFromString(head + "s1000000000000:abc\nend\n"),
               ParseError);
}

TEST(SerializeTest, ValueFromTextRejectsHostileCounts) {
  // BIND values arrive as text from clients. An element count must be
  // rejected before anything is reserved for it: negative, larger than the
  // bytes left, or followed by too few elements.
  const char* bad[] = {
      "l-1(",                    // negative list count
      "e-3(I1;)",                // negative set count
      "l100000000(",             // would reserve ~12.8 GB of Values
      "g9223372036854775807(",   // the largest count
      "t100000000(",             // tuple field count
      "t-1()",                   // negative tuple field count
      "l3(I1;I2;",               // truncated: count promises a third value
      "t2(1:aI1;",               // truncated tuple
      "s-5:abc",                 // negative string length
      "s99:abc",                 // string longer than the input
      "I99999999999999999999;",  // integer overflow
      "I9223372036854775808;",   // INT64_MAX + 1
      "I-9223372036854775809;",  // INT64_MIN - 1
  };
  for (const char* text : bad) {
    EXPECT_THROW(ValueFromText(text), ParseError) << text;
  }
  // Well-formed values still round-trip, empty collections included.
  Value v = Value::List({Value::Set({}), Value::Int(-7),
                         Value::Tuple({{"a", Value::Bag({Value::Str("x")})}})});
  EXPECT_EQ(ValueFromText(ValueToText(v)), v);
  // Both int64 extremes round-trip.
  for (int64_t i : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ValueFromText(ValueToText(Value::Int(i))), Value::Int(i)) << i;
  }
}

TEST(SerializeTest, IndexContentsAreRebuiltNotSerialized) {
  // Only the index DECLARATION travels in the dump; loading records it as a
  // pending spec without building (hash tables are derived state).
  Database db = testing::TinyCompany();
  db.BuildIndex("Employees", "dno");
  std::string dump = DumpDatabaseToString(db);
  EXPECT_NE(dump.find("index Employees dno"), std::string::npos) << dump;
  Database loaded = LoadDatabaseFromString(dump);
  EXPECT_FALSE(loaded.HasIndex("Employees", "dno"));
  loaded.BuildIndex("Employees", "dno");
  EXPECT_EQ(loaded.IndexLookup("Employees", "dno", Value::Int(0)).size(), 2u);
}

TEST(SerializeTest, DeclaredIndexesSurviveRoundTripViaRebuild) {
  Database db = testing::TinyCompany();
  db.BuildIndex("Employees", "dno");
  db.BuildIndex("Departments", "dno");
  Database loaded = LoadDatabaseFromString(DumpDatabaseToString(db));
  ASSERT_EQ(loaded.IndexSpecs().size(), 2u);
  RebuildIndexes(loaded);
  EXPECT_TRUE(loaded.HasIndex("Employees", "dno"));
  EXPECT_TRUE(loaded.HasIndex("Departments", "dno"));
  EXPECT_EQ(loaded.IndexLookup("Employees", "dno", Value::Int(0)).size(), 2u);
  // Dumping the loaded database preserves the declarations again.
  std::string redump = DumpDatabaseToString(loaded);
  EXPECT_NE(redump.find("index Departments dno"), std::string::npos);
  EXPECT_NE(redump.find("index Employees dno"), std::string::npos);
}

}  // namespace
}  // namespace ldb
