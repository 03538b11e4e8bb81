// The nest joins (docs/EXECUTOR.md): a Nest over an OuterJoin whose groups
// are the left rows, evaluated as one operator that folds the right side
// once. kRangeNestJoin handles one inequality with a sorted prefix fold
// instead of NLOuterJoin + HashNest; kHashNestJoin handles equi keys with a
// per-key fold, built in parallel over a large right side, instead of
// HashOuterJoin + HashNest. Every eligible shape must give exactly what the
// nested-loop baseline, the materializing executor (which runs the
// HashNest(outer join) pair) and the slot engine at every thread count
// give; ineligible shapes must keep the old plan; the build must poll
// cancellation and return every byte it charged.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/optimizer.h"
#include "src/core/pretty.h"
#include "src/obs/resource.h"
#include "src/runtime/eval_algebra.h"
#include "src/runtime/eval_calculus.h"
#include "src/runtime/exec_pipeline.h"
#include "src/runtime/profile.h"
#include "src/verify/calc_parser.h"
#include "src/verify/verify.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// A generated company (ties on age are frequent: ages span ~45 values) plus
// rows whose operands or heads are NULL: a manager and an employee without
// an age, and a manager without a salary. For the equi-keyed cases: an
// employee and a department without a dno, an employee whose dno no
// department has, and a second department with dno 1.
Database MakeDb() {
  workload::CompanyParams p;
  p.n_departments = 6;
  p.n_employees = 150;
  p.n_managers = 12;
  p.seed = 11;
  Database db = workload::MakeCompanyDatabase(p);
  db.Insert("Manager", Value::Tuple({{"name", Value::Str("NoAge")},
                                     {"age", Value::Null()},
                                     {"salary", Value::Real(999999)},
                                     {"children", Value::Set({})}}));
  db.Insert("Manager", Value::Tuple({{"name", Value::Str("NoPay")},
                                     {"age", Value::Int(45)},
                                     {"salary", Value::Null()},
                                     {"children", Value::Set({})}}));
  db.Insert("Employee", Value::Tuple({{"name", Value::Str("Ageless")},
                                      {"age", Value::Null()},
                                      {"salary", Value::Real(50000)},
                                      {"dno", Value::Int(1)},
                                      {"manager", Value::Null()},
                                      {"children", Value::Set({})}}));
  auto employee = [&](const char* name, Value dno) {
    db.Insert("Employee", Value::Tuple({{"name", Value::Str(name)},
                                        {"age", Value::Int(33)},
                                        {"salary", Value::Real(40000)},
                                        {"dno", std::move(dno)},
                                        {"manager", Value::Null()},
                                        {"children", Value::Set({})}}));
  };
  employee("Unassigned", Value::Null());
  employee("Orphan", Value::Int(99));
  auto department = [&](const char* name, Value dno) {
    db.Insert("Department", Value::Tuple({{"dno", std::move(dno)},
                                          {"name", Value::Str(name)},
                                          {"budget", Value::Real(1e6)}}));
  };
  department("Nowhere", Value::Null());
  department("Twin", Value::Int(1));
  return db;
}

// The operator a nest must plan to: a nest join, or the outer join it
// keeps (under a HashNest) when a condition fails.
const char kRange[] = "RangeNestJoin";
const char kHash[] = "HashNestJoin";
const char kNLOuter[] = "NLOuterJoin";
const char kHashOuter[] = "HashOuterJoin";

class RangeNestTest : public ::testing::Test {
 protected:
  Database db_ = MakeDb();

  CompiledQuery Compile(const ExprPtr& calculus) {
    return Optimizer(db_.schema()).Compile(calculus);
  }

  // Runs `calculus` on every engine and checks they agree with the
  // baseline; expects the physical plan to use `expect` (see kRange).
  // Returns the baseline result.
  Value Check(const ExprPtr& calculus, const std::string& expect) {
    CompiledQuery q = Compile(calculus);
    // Compared as text: Value equality calls 3 and 3.0 (or -0.0 and 0.0)
    // equal, the results must be identical.
    Value baseline = EvalCalculus(calculus, db_);
    const std::string expected = baseline.ToString();
    EXPECT_EQ(ExecutePlan(q.simplified, db_).ToString(), expected)
        << "materializing";
    CheckEngines(q.simplified, expected, expect);
    return baseline;
  }

  // A logical plan built by hand, checked against the materializing
  // executor.
  void CheckPlan(const AlgPtr& plan, const std::string& expect) {
    CheckEngines(plan, ExecutePlan(plan, db_).ToString(), expect);
  }

  // Runs the logical `plan` on the slot engine, serial and at 1/2/4/8
  // threads with morsels small enough to split both sides
  // (so the parallel builds engage), and checks each gives `expected`.
  void CheckEngines(const AlgPtr& logical, const std::string& expected,
                    const std::string& expect) {
    PhysPtr phys = PlanPhysical(logical, db_);
    const std::string plan = PrintPhysicalPlan(phys);
    EXPECT_NE(plan.find(expect), std::string::npos) << plan;
    if (expect == kRange || expect == kHash) {
      EXPECT_EQ(plan.find("OuterJoin"), std::string::npos) << plan;
    } else {
      EXPECT_EQ(plan.find("NestJoin"), std::string::npos) << plan;
      EXPECT_NE(plan.find("HashNest["), std::string::npos) << plan;
    }

    SlotPlan sp = CompileSlotPlan(phys, db_);
    VerifyReport report = VerifySlotPlan(sp);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(ExecuteSlotPlan(sp, db_).ToString(), expected)
        << "slot serial\n" << plan;
    for (int threads : {1, 2, 4, 8}) {
      // Several morsels over MakeDb()'s 153 employees either way.
      for (size_t morsel : {16, 64}) {
        ExecOptions par;
        par.n_threads = threads;
        par.morsel_size = morsel;
        EXPECT_EQ(ExecuteSlotPlan(sp, db_, par).ToString(), expected)
            << threads << " threads, morsel " << morsel << "\n" << plan;
      }
    }
  }

  Value CheckOQL(const std::string& oql, const std::string& expect = kRange) {
    SCOPED_TRACE(oql);
    return Check(ParseOQL(oql), expect);
  }

  Value CheckCalc(const std::string& calc,
                  const std::string& expect = kRange) {
    SCOPED_TRACE(calc);
    return Check(ParseCalculus(calc), expect);
  }
};

const char* const kOps[] = {"<", "<=", ">", ">="};

TEST_F(RangeNestTest, EveryInequalityInBothOperandOrders) {
  for (const char* op : kOps) {
    CheckOQL(std::string("select distinct struct(N: e.name, V: max(select "
                         "m.salary from m in Managers where e.age ") +
             op + " m.age)) from e in Employees");
    CheckOQL(std::string("select distinct struct(N: e.name, V: sum(select "
                         "m.age from m in Managers where m.age ") +
             op + " e.age)) from e in Employees");
  }
}

TEST_F(RangeNestTest, TiesAtTheBoundary) {
  // Employees whose age equals some manager's exercise the strict versus
  // non-strict boundary; the two counts differ exactly by the ties.
  Value strict = CheckOQL(
      "select distinct struct(N: e.name, C: count(select m from m in "
      "Managers where e.age < m.age)) from e in Employees");
  Value loose = CheckOQL(
      "select distinct struct(N: e.name, C: count(select m from m in "
      "Managers where e.age <= m.age)) from e in Employees");
  EXPECT_NE(strict, loose) << "the data must contain ties";
}

TEST_F(RangeNestTest, NullOperandsAndHeads) {
  // "Ageless" (NULL operand) matches nothing and gets the zero; "NoAge"
  // never matches; "NoPay" matches but contributes nothing to sum/max.
  for (const char* agg : {"sum", "max", "min", "avg"}) {
    CheckOQL(std::string("select distinct struct(N: e.name, V: ") + agg +
             "(select m.salary from m in Managers where e.age >= m.age)) "
             "from e in Employees");
  }
  Value counts = CheckOQL(
      "select distinct struct(N: e.name, C: count(select m from m in "
      "Managers where e.age >= m.age)) from e in Employees");
  bool saw_ageless = false;
  for (const Value& row : counts.AsElems()) {
    if (row.Field("N") == Value::Str("Ageless")) {
      saw_ageless = true;
      EXPECT_EQ(row.Field("C"), Value::Int(0));
    }
  }
  EXPECT_TRUE(saw_ageless);
}

TEST_F(RangeNestTest, EmptyRightSide) {
  // A predicate no manager passes empties the build: every left row gets
  // the zero. Both a never-true filter and an empty-by-data filter.
  CheckOQL(
      "select distinct struct(N: e.name, V: max(select m.salary from m in "
      "Managers where m.age > 1000 and e.age > m.age)) from e in Employees");
  CheckOQL(
      "select distinct struct(N: e.name, V: sum(select m.age from m in "
      "Managers where m.name = \"nobody\" and m.age < e.age)) "
      "from e in Employees");
  Database empty(workload::CompanySchema());
  empty.Insert("Employee", Value::Tuple({{"name", Value::Str("Solo")},
                                         {"age", Value::Int(30)},
                                         {"salary", Value::Real(1)},
                                         {"dno", Value::Int(0)},
                                         {"manager", Value::Null()},
                                         {"children", Value::Set({})}}));
  db_ = std::move(empty);
  Value v = CheckOQL(
      "select distinct struct(N: e.name, V: count(select m from m in "
      "Managers where e.age > m.age)) from e in Employees");
  EXPECT_EQ(v, Value::Set({Value::Tuple({{"N", Value::Str("Solo")},
                                         {"V", Value::Int(0)}})}));
}

TEST_F(RangeNestTest, LeftOnlyConjunct) {
  // `e.dno <= 1` reads only the left row: a left row failing it matches
  // nothing and still appears, with the zero.
  CheckCalc(
      "set{ <N=e.name, V=max{ m.salary | m <- Managers, (e.age > m.age), "
      "(e.dno <= 1) }> | e <- Employees }");
  CheckCalc(
      "set{ <N=e.name, V=sum{ m.age | m <- Managers, (e.salary > 40000), "
      "(m.age <= e.age) }> | e <- Employees }");
}

TEST_F(RangeNestTest, EveryFoldableMonoid) {
  const char* heads[] = {
      "max{ m.salary", "min{ m.salary", "sum{ m.age",  "sum{ m.salary",
      "sum{ 1",        "avg{ m.salary", "avg{ m.age",  "min{ m.age",
      "some{ (m.salary > 150000)", "all{ (m.salary > 100000)"};
  for (const char* head : heads) {
    CheckCalc(std::string("set{ <N=e.name, V=") + head +
              " | m <- Managers, (e.age > m.age) }> | e <- Employees }");
  }
  // Type JA in its paper form (P-JA), and the quantifier forms of OQL.
  CheckOQL(
      "select distinct e.name from e in Employees where e.salary < "
      "max(select m.salary from m in Managers where e.age > m.age)");
  CheckOQL(
      "select distinct struct(N: e.name, V: exists m in Managers: "
      "e.age > m.age and m.salary > 150000.0) from e in Employees");
  CheckOQL(
      "select distinct struct(N: e.name, V: avg(select m.age from m in "
      "Managers where m.age < e.age)) from e in Employees");
}

TEST_F(RangeNestTest, NaNOperandsAndHeadsFoldInStreamOrder) {
  // Value::Compare ranks NaN above every number, so NaN keys sort to the
  // end of the build and a NaN operand matches by that same order, exactly
  // as the nested loop's comparisons do. "First" leads the stream with a
  // NaN key; "Last" ends it with a NaN head but is the youngest, so it
  // leads an age-sorted fold.
  const double nan = std::nan("");
  Database db(workload::CompanySchema());
  auto manager = [&](const char* name, int age, double salary) {
    db.Insert("Manager", Value::Tuple({{"name", Value::Str(name)},
                                       {"age", Value::Int(age)},
                                       {"salary", Value::Real(salary)},
                                       {"children", Value::Set({})}}));
  };
  manager("First", 40, nan);
  manager("B", 30, 100);
  manager("C", 50, 300);
  manager("D", 45, 200);
  manager("Last", 1, nan);
  for (int i = 0; i < 8; ++i) {
    db.Insert("Employee",
              Value::Tuple({{"name", Value::Str("e" + std::to_string(i))},
                            {"age", Value::Int(20 + 6 * i)},
                            {"salary", Value::Real(i == 3 ? nan : 60.0 * i)},
                            {"dno", Value::Int(0)},
                            {"manager", Value::Null()},
                            {"children", Value::Set({})}}));
  }
  db_ = std::move(db);
  for (const char* agg : {"max", "min", "sum", "avg"}) {
    // NaN as a head.
    CheckOQL(std::string("select distinct struct(N: e.name, V: ") + agg +
             "(select m.salary from m in Managers where e.age > m.age)) "
             "from e in Employees");
    // NaN as a build key and as a probe operand.
    for (const char* op : kOps) {
      CheckOQL(std::string("select distinct struct(N: e.name, V: ") + agg +
               "(select m.age from m in Managers where e.salary " + op +
               " m.salary)) from e in Employees");
    }
  }
}

TEST_F(RangeNestTest, NestedInsideAnotherNest) {
  // The range nest-join's output feeds an outer grouping; the left side is
  // a join of two scans.
  CheckOQL(
      "select distinct struct(D: d.name, E: e.name, V: max(select m.salary "
      "from m in Managers where e.age > m.age)) from d in Departments, "
      "e in Employees where e.dno = d.dno");
  CheckOQL(
      "select distinct struct(E: e.name, C: c.name, V: count(select m from "
      "m in Managers where c.age < m.age)) from e in Employees, "
      "c in e.children");
}

TEST_F(RangeNestTest, IneligibleShapesKeepNestedLoops) {
  // Collection and inexact monoids (list comprehensions do not unnest at
  // all, so bag and set stand in for the collection case).
  for (const char* coll : {"bag", "set"}) {
    CheckCalc(std::string("set{ <N=e.name, V=") + coll +
                  "{ m.name | m <- Managers, (e.age > m.age) }> "
                  "| e <- Employees }",
              kNLOuter);
  }
  CheckCalc(
      "set{ <N=e.name, V=prod{ m.age | m <- Managers, (e.age > m.age) }> "
      "| e <- Employees }",
      kNLOuter);
  // The head reads the left row.
  CheckOQL(
      "select distinct struct(N: e.name, V: sum(select m.age + e.age from m "
      "in Managers where e.age > m.age)) from e in Employees",
      kNLOuter);
  // Two inequalities.
  CheckOQL(
      "select distinct struct(N: e.name, V: max(select m.salary from m in "
      "Managers where e.age > m.age and e.salary < m.salary)) "
      "from e in Employees",
      kNLOuter);
  // A head that can raise (division) is evaluated only for matched pairs.
  CheckOQL(
      "select distinct struct(N: e.name, V: sum(select m.salary / m.age "
      "from m in Managers where e.age > m.age)) from e in Employees",
      kNLOuter);
}

TEST_F(RangeNestTest, DuplicateLeftRowsKeepTheOuterJoin) {
  // A left side with duplicate rows (an unnest over a bag): the nest merges
  // the duplicates into one group, so the per-row fold would not agree. No
  // schema has a bag-typed path, so the plan is built by hand.
  for (BinOpKind op : {BinOpKind::kGt, BinOpKind::kEq}) {
    AlgPtr left = AlgOp::Unnest(
        AlgOp::Unit(),
        Expr::Lit(
            Value::Bag({Value::Int(30), Value::Int(30), Value::Int(45)})),
        "x", Expr::True());
    AlgPtr join = AlgOp::OuterJoin(
        left, AlgOp::Scan("Managers", "m", Expr::True()),
        Expr::Bin(op, Expr::Var("x"), Expr::Proj(Expr::Var("m"), "age")));
    AlgPtr nest = AlgOp::Nest(join, MonoidKind::kSum,
                              Expr::Proj(Expr::Var("m"), "age"), "v",
                              {{"x", Expr::Var("x")}}, {"m"}, Expr::True());
    AlgPtr plan = AlgOp::Reduce(
        nest, MonoidKind::kBag,
        Expr::Record({{"X", Expr::Var("x")}, {"V", Expr::Var("v")}}),
        Expr::True());
    CheckPlan(plan, op == BinOpKind::kEq ? kHashOuter : kNLOuter);
    EXPECT_EQ(ExecutePlan(plan, db_).AsElems().size(), 2u);
  }
}

TEST_F(RangeNestTest, NullRightVariablesContributeNothing) {
  // A right input whose own outer unnest binds c to NULL (a manager without
  // children): the nest skips such rows (O7 null-vars m and c), so the
  // build must too. Built by hand; OQL reaches this only through deeper
  // nesting.
  for (BinOpKind op : {BinOpKind::kGe, BinOpKind::kEq}) {
    AlgPtr right = AlgOp::OuterUnnest(
        AlgOp::Scan("Managers", "m", Expr::True()),
        Expr::Proj(Expr::Var("m"), "children"), "c", Expr::True());
    AlgPtr join = AlgOp::OuterJoin(
        AlgOp::Scan("Employees", "e", Expr::True()), right,
        Expr::Bin(op, Expr::Proj(Expr::Var("e"), "age"),
                  Expr::Proj(Expr::Var("m"), "age")));
    AlgPtr nest =
        AlgOp::Nest(join, MonoidKind::kSum, Expr::Int(1), "v",
                    {{"e", Expr::Var("e")}}, {"m", "c"}, Expr::True());
    AlgPtr plan = AlgOp::Reduce(
        nest, MonoidKind::kBag,
        Expr::Record({{"E", Expr::Proj(Expr::Var("e"), "name")},
                      {"V", Expr::Var("v")}}),
        Expr::True());
    CheckPlan(plan, op == BinOpKind::kEq ? kHash : kRange);
  }
}

// ------------------------------------------------------------ equi keys

TEST_F(RangeNestTest, EquiKeysEveryFoldableMonoid) {
  const char* heads[] = {
      "max{ e.salary", "min{ e.age",  "sum{ e.age", "sum{ e.salary",
      "sum{ 1",        "avg{ e.salary", "avg{ e.age", "max{ e.age",
      "some{ (e.salary > 100000.0)", "all{ (e.salary > 40000.0)"};
  for (const char* head : heads) {
    CheckCalc(std::string("set{ <D=d.name, V=") + head +
                  " | e <- Employees, (e.dno = d.dno) }> | d <- Departments }",
              kHash);
  }
  // P-A and CB (the count bug) in their paper forms, and count.
  CheckOQL(
      "select distinct struct(D: d.name, total: sum(select e.salary from e "
      "in Employees where e.dno = d.dno)) from d in Departments",
      kHash);
  CheckOQL(
      "select distinct d.name from d in Departments where count(select e "
      "from e in Employees where e.dno = d.dno) = 0",
      kHash);
  CheckOQL(
      "select distinct struct(D: d.name, A: avg(select e.age from e in "
      "Employees where d.dno = e.dno)) from d in Departments",
      kHash);
}

TEST_F(RangeNestTest, EquiNullDuplicateAndUnmatchedKeys) {
  // "Nowhere" (NULL dno) matches nothing; "Unassigned" (NULL dno) and
  // "Orphan" (dno 99) match no department; "Twin" shares dno 1 with a
  // generated department and gets the same count.
  Value counts = CheckOQL(
      "select distinct struct(D: d.name, C: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments",
      kHash);
  Value twin, nowhere;
  for (const Value& row : counts.AsElems()) {
    if (row.Field("D") == Value::Str("Twin")) twin = row.Field("C");
    if (row.Field("D") == Value::Str("Nowhere")) nowhere = row.Field("C");
  }
  int64_t dno1 = 0;
  for (const Value& e : db_.Extent("Employees")) {
    const Value& dno = db_.Deref(e.AsRef()).Field("dno");
    if (!dno.is_null() && dno.AsInt() == 1) ++dno1;
  }
  EXPECT_EQ(twin, Value::Int(dno1));
  EXPECT_EQ(nowhere, Value::Int(0));
  // The right side keyed by NULL and by unmatched dnos, seen from the
  // employees: a self-correlation with a big left side (mode-A spine).
  CheckOQL(
      "select distinct struct(N: e.name, C: count(select f from f in "
      "Employees where f.dno = e.dno)) from e in Employees",
      kHash);
}

TEST_F(RangeNestTest, EquiCompositeKeys) {
  CheckOQL(
      "select distinct struct(N: e.name, C: count(select f from f in "
      "Employees where f.dno = e.dno and f.age = e.age)) from e in "
      "Employees",
      kHash);
  CheckOQL(
      "select distinct struct(D: d.name, S: sum(select e.salary from e in "
      "Employees where e.dno = d.dno and e.name = d.name)) from d in "
      "Departments",
      kHash);
}

TEST_F(RangeNestTest, EquiLeftOnlyConjunct) {
  // A department failing `d.dno <= 2` (or with a NULL dno) still appears,
  // with the zero.
  CheckCalc(
      "set{ <D=d.name, V=sum{ e.salary | e <- Employees, (e.dno = d.dno), "
      "(d.dno <= 2) }> | d <- Departments }",
      kHash);
  CheckCalc(
      "set{ <D=d.name, V=max{ e.age | e <- Employees, (d.budget > 0.0), "
      "(d.dno = e.dno) }> | d <- Departments }",
      kHash);
}

TEST_F(RangeNestTest, EquiRightOnlyConjunctAndNestPredicate) {
  // Both become a Filter on the build side: a right row failing either
  // contributes nothing. Built by hand, since normalization pushes such
  // conjuncts into the scan.
  auto e = [](const char* attr) {
    return Expr::Proj(Expr::Var("e"), attr);
  };
  AlgPtr join = AlgOp::OuterJoin(
      AlgOp::Scan("Departments", "d", Expr::True()),
      AlgOp::Scan("Employees", "e", Expr::True()),
      Expr::Bin(BinOpKind::kAnd,
                Expr::Bin(BinOpKind::kEq, Expr::Proj(Expr::Var("d"), "dno"),
                          e("dno")),
                Expr::Bin(BinOpKind::kGt, e("age"), Expr::Int(40))));
  for (ExprPtr nest_pred :
       {Expr::True(),
        Expr::Bin(BinOpKind::kGt, e("salary"), Expr::Real(60000))}) {
    AlgPtr nest = AlgOp::Nest(join, MonoidKind::kSum, e("salary"), "v",
                              {{"d", Expr::Var("d")}}, {"e"}, nest_pred);
    AlgPtr plan = AlgOp::Reduce(
        nest, MonoidKind::kBag,
        Expr::Record({{"D", Expr::Proj(Expr::Var("d"), "name")},
                      {"V", Expr::Var("v")}}),
        Expr::True());
    CheckPlan(plan, kHash);
    const std::string printed = PrintPhysicalPlan(PlanPhysical(plan, db_));
    const char* filter = nest_pred->IsTrueLiteral()
                             ? "Filter[(e.age > 40)]"
                             : "Filter[((e.age > 40) and (e.salary > 60000))]";
    EXPECT_NE(printed.find(filter), std::string::npos) << printed;
  }
}

TEST_F(RangeNestTest, EquiEmptyBuildSide) {
  CheckOQL(
      "select distinct struct(D: d.name, V: max(select e.salary from e in "
      "Employees where e.age > 1000 and e.dno = d.dno)) from d in "
      "Departments",
      kHash);
  Database empty(workload::CompanySchema());
  empty.Insert("Department", Value::Tuple({{"dno", Value::Int(0)},
                                           {"name", Value::Str("Solo")},
                                           {"budget", Value::Real(1)}}));
  db_ = std::move(empty);
  Value v = CheckOQL(
      "select distinct struct(D: d.name, V: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments",
      kHash);
  EXPECT_EQ(v, Value::Set({Value::Tuple({{"D", Value::Str("Solo")},
                                         {"V", Value::Int(0)}})}));
}

TEST_F(RangeNestTest, EquiNaNAndSignedZeroHeadsFoldInAnyOrder) {
  // max/min over NaN and over zeros of both signs give one answer however
  // the parallel build splits the right side.
  Database db(workload::CompanySchema());
  for (int d = 0; d < 3; ++d) {
    db.Insert("Department", Value::Tuple({{"dno", Value::Int(d)},
                                          {"name", Value::Str(std::to_string(d))},
                                          {"budget", Value::Real(1)}}));
  }
  const double values[] = {-0.0, 0.0, 5.0, -5.0, std::nan(""), 1.5};
  for (int i = 0; i < 240; ++i) {
    // Department 0 sees every value; 1 only zeros of both signs; 2 the
    // rest, NaN included.
    const int k = i / 3;
    double v = i % 3 == 0   ? values[k % 6]
               : i % 3 == 1 ? values[k % 2]
                            : values[2 + k % 4];
    std::string name = "e";
    name += std::to_string(i);
    db.Insert("Employee",
              Value::Tuple({{"name", Value::Str(name)},
                            {"age", Value::Int(20 + i % 40)},
                            {"salary", Value::Real(v)},
                            {"dno", Value::Int(i % 3)},
                            {"manager", Value::Null()},
                            {"children", Value::Set({})}}));
  }
  db_ = std::move(db);
  for (const char* agg : {"max", "min", "sum", "avg"}) {
    CheckOQL(std::string("select distinct struct(D: d.name, V: ") + agg +
                 "(select e.salary from e in Employees where e.dno = "
                 "d.dno)) from d in Departments",
             kHash);
  }
}

TEST_F(RangeNestTest, EquiIneligibleShapesKeepTheHashOuterJoin) {
  // The head reads the left row.
  CheckOQL(
      "select distinct struct(D: d.name, V: sum(select e.salary + d.budget "
      "from e in Employees where e.dno = d.dno)) from d in Departments",
      kHashOuter);
  // A residual reading both sides.
  CheckOQL(
      "select distinct struct(D: d.name, V: sum(select e.salary from e in "
      "Employees where e.dno = d.dno and e.salary < d.budget)) "
      "from d in Departments",
      kHashOuter);
  // An inexact monoid and collection monoids.
  CheckCalc(
      "set{ <D=d.name, V=prod{ e.age | e <- Employees, (e.dno = d.dno) }> "
      "| d <- Departments }",
      kHashOuter);
  for (const char* coll : {"bag", "set"}) {
    CheckCalc(std::string("set{ <D=d.name, V=") + coll +
                  "{ e.name | e <- Employees, (e.dno = d.dno) }> "
                  "| d <- Departments }",
              kHashOuter);
  }
  // Without hash joins the equi-correlated nest keeps its nested loop.
  CompiledQuery q = Compile(ParseOQL(
      "select distinct struct(D: d.name, total: sum(select e.salary from e "
      "in Employees where e.dno = d.dno)) from d in Departments"));
  PhysicalOptions nl;
  nl.use_hash_joins = false;
  const std::string plan =
      PrintPhysicalPlan(PlanPhysical(q.simplified, db_, nl));
  EXPECT_NE(plan.find("HashNest["), std::string::npos) << plan;
  EXPECT_NE(plan.find("NLOuterJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("NestJoin"), std::string::npos) << plan;
}

TEST_F(RangeNestTest, PaperPJAPlanHasNoHashNest) {
  CompiledQuery q = Compile(ParseOQL(
      "select distinct e.name from e in Employees where e.salary < "
      "max(select m.salary from m in Managers where e.age > m.age)"));
  std::string plan = PrintPhysicalPlan(PlanPhysical(q.simplified, db_));
  EXPECT_NE(plan.find("RangeNestJoin[max/m.salary"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("HashNest"), std::string::npos) << plan;
  // EXPLAIN shows the plan that runs, not a re-derivation of it.
  EXPECT_EQ(ExplainPhysical(q.simplified, PhysicalOptions{}, db_), plan);
}

// ---------------------------------------------------------------- runtime

const char* const kPJA =
    "select distinct e.name from e in Employees where e.salary < "
    "max(select m.salary from m in Managers where e.age > m.age)";
const char* const kPA =
    "select distinct struct(D: d.name, total: sum(select e.salary from e in "
    "Employees where e.dno = d.dno)) from d in Departments";

class RangeNestRuntimeTest : public RangeNestTest {
 protected:
  Value Run(const char* oql, const ExecOptions& exec) {
    CompiledQuery q = Compile(ParseOQL(oql));
    PhysPtr phys = PlanPhysical(q.simplified, db_);
    return ExecuteSlotPlan(CompileSlotPlan(phys, db_), db_, exec);
  }

  static bool TrackerArmed() {
    obs::QueryResourceContext ctx;
    obs::MemoryTracker probe;
    probe.Arm(&ctx);
    return probe.armed();
  }
};

TEST_F(RangeNestRuntimeTest, CancelledBuildUnwindsBalanced) {
  // The token is cancelled up front, so the first poll — a build row — is
  // where the query stops: mid-build, in the serial build and in the
  // parallel build's workers.
  for (const char* oql : {kPJA, kPA}) {
    for (int threads : {1, 4}) {
      CancelToken cancel;
      cancel.Cancel();
      obs::QueryResourceContext ctx;
      ExecOptions exec;
      exec.n_threads = threads;
      exec.morsel_size = 16;
      exec.cancel = &cancel;
      exec.resource = &ctx;
      EXPECT_THROW(Run(oql, exec), QueryCancelled)
          << oql << ", " << threads << " threads";
      EXPECT_EQ(ctx.InUseBytes(), 0u) << oql << ", " << threads << " threads";
    }
  }
}

TEST_F(RangeNestRuntimeTest, BudgetAbortReleasesEveryCharge) {
  if (!TrackerArmed()) GTEST_SKIP() << "metrics compiled out";
  // Enough managers (P-JA) and departments (P-A) that the build alone
  // outgrows the budget.
  workload::CompanyParams p;
  p.n_employees = 400;
  p.n_managers = 200;
  p.n_departments = 40;
  db_ = workload::MakeCompanyDatabase(p);
  for (const char* oql : {kPJA, kPA}) {
    for (int threads : {1, 4}) {
      obs::QueryResourceContext ctx(/*budget_bytes=*/2048);
      ExecOptions exec;
      exec.n_threads = threads;
      exec.morsel_size = 32;
      exec.resource = &ctx;
      EXPECT_THROW(Run(oql, exec), obs::QueryMemoryExceeded)
          << oql << ", " << threads << " threads";
      EXPECT_TRUE(ctx.OverBudget());
      EXPECT_EQ(ctx.InUseBytes(), 0u) << oql << ", " << threads << " threads";
      // The build charges under the operator's own class.
      const PhysKind kind = oql == kPA ? PhysKind::kHashNestJoin
                                       : PhysKind::kRangeNestJoin;
      EXPECT_GT(ctx.OpPeakBytes(static_cast<int>(kind)), 0u) << oql;
    }
    // Unbudgeted, the build hands everything back.
    for (int threads : {1, 4}) {
      obs::QueryResourceContext ctx;
      ExecOptions exec;
      exec.n_threads = threads;
      exec.morsel_size = 32;
      exec.resource = &ctx;
      Run(oql, exec);
      EXPECT_EQ(ctx.InUseBytes(), 0u) << oql << ", " << threads << " threads";
    }
  }
}

TEST_F(RangeNestRuntimeTest, ExplainAnalyzeReportsBuildAndRows) {
  const uint64_t managers = db_.Extent("Managers").size();
  const uint64_t employees = db_.Extent("Employees").size();
  for (int threads : {1, 4}) {
    QueryProfiler prof;
    ExecOptions exec;
    exec.n_threads = threads;
    exec.morsel_size = 16;
    exec.profiler = &prof;
    Run(kPJA, exec);
    const OperatorStats* range = nullptr;
    for (const OperatorStats* s : prof.Operators()) {
      if (s->kind == PhysKind::kRangeNestJoin) range = s;
    }
    ASSERT_NE(range, nullptr) << threads << " threads";
    EXPECT_EQ(range->build_rows, managers) << threads << " threads";
    EXPECT_EQ(range->rows_out, employees) << threads << " threads";
    EXPECT_GT(range->mem_bytes, 0u) << threads << " threads";
    // The operator's name round-trips through the profile JSON.
    QueryProfiler back = ProfileFromJson(ProfileToJson(prof));
    bool found = false;
    for (const OperatorStats* s : back.Operators()) {
      found = found || s->kind == PhysKind::kRangeNestJoin;
    }
    EXPECT_TRUE(found) << ProfileToJson(prof);
  }
}

TEST_F(RangeNestRuntimeTest, HashBuildRunsOnWorkersWithSerialCounters) {
  // P-A's left side (8 departments) is one morsel, so the spine runs
  // serially; the build over the employees runs on the workers, and its
  // subtree's row counters equal the serial run's.
  uint64_t keyed = 0;
  for (const Value& e : db_.Extent("Employees")) {
    keyed += !db_.Deref(e.AsRef()).Field("dno").is_null();
  }
  const uint64_t departments = db_.Extent("Departments").size();
  QueryProfiler serial;
  Value expected;
  for (int threads : {1, 4}) {
    QueryProfiler prof;
    ExecOptions exec;
    exec.n_threads = threads;
    exec.morsel_size = 16;
    exec.profiler = &prof;
    Value got = Run(kPA, exec);
    const OperatorStats* join = nullptr;
    for (const OperatorStats* s : prof.Operators()) {
      if (s->kind == PhysKind::kHashNestJoin) join = s;
    }
    ASSERT_NE(join, nullptr) << threads << " threads";
    EXPECT_EQ(join->build_rows, keyed) << threads << " threads";
    EXPECT_EQ(join->rows_out, departments) << threads << " threads";
    EXPECT_EQ(join->groups, departments) << threads << " threads";
    EXPECT_GT(join->mem_bytes, 0u) << threads << " threads";
    const std::string explain =
        ExplainAnalyze(PlanPhysical(Compile(ParseOQL(kPA)).simplified, db_),
                       prof);
    if (threads == 1) {
      EXPECT_EQ(join->build_workers, 0u);
      expected = got;
      serial = std::move(prof);
      continue;
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(join->build_workers, 4u) << explain;
    EXPECT_NE(explain.find("build_workers=4"), std::string::npos) << explain;
    for (const OperatorStats* s : serial.Operators()) {
      const OperatorStats* p = prof.Find(s->op_id);
      ASSERT_NE(p, nullptr) << s->label;
      EXPECT_EQ(p->rows_out, s->rows_out) << s->label;
      EXPECT_EQ(p->build_rows, s->build_rows) << s->label;
    }
    QueryProfiler back = ProfileFromJson(ProfileToJson(prof));
    EXPECT_EQ(ProfileToJson(back), ProfileToJson(prof));
  }
}

}  // namespace
}  // namespace ldb
