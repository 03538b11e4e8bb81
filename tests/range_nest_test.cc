// The range nest-join (kRangeNestJoin, docs/EXECUTOR.md): a Nest over an
// OuterJoin on one inequality, evaluated as a sorted prefix fold instead of
// NLOuterJoin + HashNest. Every eligible shape must give exactly what the
// nested-loop baseline, the materializing executor, the Env pipeline (which
// runs the HashNest(NLOuterJoin) expansion) and the slot engine at every
// thread count give; ineligible shapes must keep the old plan; the build
// must poll cancellation and return every byte it charged.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/optimizer.h"
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
// an age, and a manager without a salary.
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
  return db;
}

class RangeNestTest : public ::testing::Test {
 protected:
  Database db_ = MakeDb();

  CompiledQuery Compile(const ExprPtr& calculus) {
    return Optimizer(db_.schema()).Compile(calculus);
  }

  // Runs `calculus` on every engine and checks they agree with the
  // baseline; expects the physical plan to use (or not use) the range
  // nest-join. Returns the baseline result.
  Value Check(const ExprPtr& calculus, bool expect_range) {
    CompiledQuery q = Compile(calculus);
    PhysPtr phys = PlanPhysical(q.simplified, db_);
    const std::string plan = PrintPhysicalPlan(phys);
    const bool has_range = plan.find("RangeNestJoin") != std::string::npos;
    EXPECT_EQ(has_range, expect_range) << plan;
    if (expect_range) {
      EXPECT_EQ(plan.find("NLOuterJoin"), std::string::npos) << plan;
    } else {
      EXPECT_NE(plan.find("NLOuterJoin"), std::string::npos) << plan;
      EXPECT_NE(plan.find("HashNest"), std::string::npos) << plan;
    }

    // Compared as text: Value equality calls 3 and 3.0 (or any number and
    // NaN) equal, the results must be identical.
    Value baseline = EvalCalculus(calculus, db_);
    const std::string expected = baseline.ToString();
    EXPECT_EQ(ExecutePlan(q.simplified, db_).ToString(), expected)
        << "materializing\n" << plan;
    ExecOptions env;
    env.use_slot_frames = false;
    EXPECT_EQ(ExecutePipelined(phys, db_, env).ToString(), expected)
        << "Env\n" << plan;

    SlotPlan sp = CompileSlotPlan(phys, db_);
    VerifyReport report = VerifySlotPlan(sp);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(ExecuteSlotPlan(sp, db_).ToString(), expected)
        << "slot serial\n" << plan;
    for (int threads : {1, 2, 4, 8}) {
      ExecOptions par;
      par.n_threads = threads;
      par.morsel_size = 16;  // several morsels over MakeDb()'s 151 employees
      EXPECT_EQ(ExecuteSlotPlan(sp, db_, par).ToString(), expected)
          << threads << " threads\n" << plan;
    }
    return baseline;
  }

  Value CheckOQL(const std::string& oql, bool expect_range = true) {
    SCOPED_TRACE(oql);
    return Check(ParseOQL(oql), expect_range);
  }

  Value CheckCalc(const std::string& calc, bool expect_range = true) {
    SCOPED_TRACE(calc);
    return Check(ParseCalculus(calc), expect_range);
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
  // NaN breaks Value::Compare's ordering (it compares equal to every
  // number) and makes max/min order-dependent; the operator must then fold
  // the matches in stream order exactly as the nested loop does. "First"
  // leads the stream with a NaN key; "Last" ends it with a NaN head but is
  // the youngest, so it would lead an age-sorted fold.
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
              false);
  }
  CheckCalc(
      "set{ <N=e.name, V=prod{ m.age | m <- Managers, (e.age > m.age) }> "
      "| e <- Employees }",
      false);
  // The head reads the left row.
  CheckOQL(
      "select distinct struct(N: e.name, V: sum(select m.age + e.age from m "
      "in Managers where e.age > m.age)) from e in Employees",
      false);
  // Two inequalities.
  CheckOQL(
      "select distinct struct(N: e.name, V: max(select m.salary from m in "
      "Managers where e.age > m.age and e.salary < m.salary)) "
      "from e in Employees",
      false);
  // A head that can raise (division) is evaluated only for matched pairs.
  CheckOQL(
      "select distinct struct(N: e.name, V: sum(select m.salary / m.age "
      "from m in Managers where e.age > m.age)) from e in Employees",
      false);
}

TEST_F(RangeNestTest, DuplicateLeftRowsKeepNestedLoops) {
  // A left side with duplicate rows (an unnest over a bag): the nest merges
  // the duplicates into one group, so the per-row fold would not agree. No
  // schema has a bag-typed path, so the plan is built by hand.
  AlgPtr left = AlgOp::Unnest(
      AlgOp::Unit(),
      Expr::Lit(Value::Bag({Value::Int(30), Value::Int(30), Value::Int(45)})),
      "x", Expr::True());
  AlgPtr join = AlgOp::OuterJoin(
      left, AlgOp::Scan("Managers", "m", Expr::True()),
      Expr::Bin(BinOpKind::kGt, Expr::Var("x"),
                Expr::Proj(Expr::Var("m"), "age")));
  AlgPtr nest = AlgOp::Nest(join, MonoidKind::kSum,
                            Expr::Proj(Expr::Var("m"), "age"), "v",
                            {{"x", Expr::Var("x")}}, {"m"}, Expr::True());
  AlgPtr plan = AlgOp::Reduce(
      nest, MonoidKind::kBag,
      Expr::Record({{"X", Expr::Var("x")}, {"V", Expr::Var("v")}}),
      Expr::True());
  PhysPtr phys = PlanPhysical(plan, db_);
  const std::string printed = PrintPhysicalPlan(phys);
  EXPECT_EQ(printed.find("RangeNestJoin"), std::string::npos) << printed;
  EXPECT_NE(printed.find("NLOuterJoin"), std::string::npos) << printed;
  Value expected = ExecutePlan(plan, db_);
  EXPECT_EQ(expected.AsElems().size(), 2u) << expected.ToString();
  EXPECT_EQ(ExecutePipelined(phys, db_), expected);
}

TEST_F(RangeNestTest, NullRightVariablesContributeNothing) {
  // A right input whose own outer unnest binds c to NULL (a manager without
  // children): the nest skips such rows (O7 null-vars m and c), so the
  // build must too. Built by hand; OQL reaches this only through deeper
  // nesting.
  AlgPtr right = AlgOp::OuterUnnest(
      AlgOp::Scan("Managers", "m", Expr::True()),
      Expr::Proj(Expr::Var("m"), "children"), "c", Expr::True());
  AlgPtr join = AlgOp::OuterJoin(
      AlgOp::Scan("Employees", "e", Expr::True()), right,
      Expr::Bin(BinOpKind::kGe, Expr::Proj(Expr::Var("e"), "age"),
                Expr::Proj(Expr::Var("m"), "age")));
  AlgPtr nest = AlgOp::Nest(join, MonoidKind::kSum, Expr::Int(1), "v",
                            {{"e", Expr::Var("e")}}, {"m", "c"}, Expr::True());
  AlgPtr plan = AlgOp::Reduce(
      nest, MonoidKind::kBag,
      Expr::Record({{"E", Expr::Proj(Expr::Var("e"), "name")},
                    {"V", Expr::Var("v")}}),
      Expr::True());
  PhysPtr phys = PlanPhysical(plan, db_);
  const std::string printed = PrintPhysicalPlan(phys);
  EXPECT_NE(printed.find("RangeNestJoin"), std::string::npos) << printed;
  const std::string expected = ExecutePlan(plan, db_).ToString();
  ExecOptions env;
  env.use_slot_frames = false;
  EXPECT_EQ(ExecutePipelined(phys, db_, env).ToString(), expected);
  SlotPlan sp = CompileSlotPlan(phys, db_);
  EXPECT_TRUE(VerifySlotPlan(sp).ok()) << VerifySlotPlan(sp).ToString();
  for (int threads : {1, 4}) {
    ExecOptions par;
    par.n_threads = threads;
    par.morsel_size = 16;
    EXPECT_EQ(ExecuteSlotPlan(sp, db_, par).ToString(), expected) << threads;
  }
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

class RangeNestRuntimeTest : public RangeNestTest {
 protected:
  Value Run(const ExecOptions& exec) {
    CompiledQuery q = Compile(ParseOQL(kPJA));
    PhysPtr phys = PlanPhysical(q.simplified, db_);
    if (!exec.use_slot_frames) return ExecutePipelined(phys, db_, exec);
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
  for (int threads : {1, 4}) {
    CancelToken cancel;
    cancel.Cancel();
    obs::QueryResourceContext ctx;
    ExecOptions exec;
    exec.n_threads = threads;
    exec.morsel_size = 16;
    exec.cancel = &cancel;
    exec.resource = &ctx;
    EXPECT_THROW(Run(exec), QueryCancelled) << threads << " threads";
    EXPECT_EQ(ctx.InUseBytes(), 0u) << threads << " threads";
  }
}

TEST_F(RangeNestRuntimeTest, BudgetAbortReleasesEveryCharge) {
  if (!TrackerArmed()) GTEST_SKIP() << "metrics compiled out";
  // Enough managers that the build alone outgrows the budget.
  workload::CompanyParams p;
  p.n_employees = 400;
  p.n_managers = 200;
  db_ = workload::MakeCompanyDatabase(p);
  for (int threads : {1, 4}) {
    for (bool slot_frames : {true, false}) {
      if (!slot_frames && threads > 1) continue;  // Env runs serially
      obs::QueryResourceContext ctx(/*budget_bytes=*/2048);
      ExecOptions exec;
      exec.n_threads = threads;
      exec.morsel_size = 32;
      exec.use_slot_frames = slot_frames;
      exec.resource = &ctx;
      EXPECT_THROW(Run(exec), obs::QueryMemoryExceeded)
          << threads << " threads, slot=" << slot_frames;
      EXPECT_TRUE(ctx.OverBudget());
      EXPECT_EQ(ctx.InUseBytes(), 0u)
          << threads << " threads, slot=" << slot_frames;
    }
  }
  // Unbudgeted, the build hands everything back.
  obs::QueryResourceContext ctx;
  ExecOptions exec;
  exec.resource = &ctx;
  Run(exec);
  EXPECT_EQ(ctx.InUseBytes(), 0u);
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
    Run(exec);
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

}  // namespace
}  // namespace ldb
