// Tests for the physical plan layer (src/runtime/physical_plan.*) and the
// pipelined slot engine (src/runtime/exec_pipeline.*): operator choice,
// engine equivalence with the materializing executor, and the scalar-nest
// zero row.

#include "src/runtime/exec_pipeline.h"

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/core/unnest.h"
#include "src/runtime/eval_algebra.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();

  AlgPtr PlanOf(const std::string& oql) {
    return UnnestComp(Normalize(ParseOQL(oql)), db_.schema());
  }

  // Engine equivalence on one query: materializing == pipelined == baseline.
  void CheckAllEngines(const std::string& oql) {
    AlgPtr logical = PlanOf(oql);
    Value materialized = ExecutePlan(logical, db_);
    PhysPtr physical = PlanPhysical(logical, db_);
    Value pipelined = ExecutePipelined(physical, db_);
    Value baseline = RunOQLBaseline(db_, oql);
    EXPECT_EQ(pipelined, materialized) << oql << "\n"
                                       << PrintPhysicalPlan(physical);
    EXPECT_EQ(pipelined, baseline) << oql;
  }
};

TEST_F(PipelineTest, PlannerChoosesOperators) {
  AlgPtr logical = PlanOf(
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments");
  PhysPtr phys = PlanPhysical(logical, db_);
  std::string printed = PrintPhysicalPlan(phys);
  EXPECT_NE(printed.find("HashOuterJoin[build=right keys(d.dno=e.dno)]"),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find("HashNest"), std::string::npos);
  EXPECT_NE(printed.find("TableScan"), std::string::npos);

  PhysicalOptions nl;
  nl.use_hash_joins = false;
  PhysPtr phys_nl = PlanPhysical(logical, db_, nl);
  EXPECT_NE(PrintPhysicalPlan(phys_nl).find("NLOuterJoin"), std::string::npos);
}

TEST_F(PipelineTest, PlannerUsesIndexes) {
  db_.BuildIndex("Employees", "dno");
  AlgPtr logical = PlanOf(
      "select distinct e.name from e in Employees where e.dno = 1");
  PhysPtr phys = PlanPhysical(logical, db_);
  EXPECT_NE(PrintPhysicalPlan(phys).find("IndexScan[e <- Employees.dno = 1]"),
            std::string::npos);
  EXPECT_EQ(ExecutePipelined(phys, db_), Value::Set({Value::Str("Cal"),
                                                     Value::Str("Dee")}));
}

TEST_F(PipelineTest, InnerHashJoinBuildsOnSmallerSide) {
  AlgPtr logical = PlanOf(
      "select distinct struct(a: e.name, b: d.name) "
      "from e in Employees, d in Departments where e.dno = d.dno");
  PhysPtr phys = PlanPhysical(logical, db_);
  // Departments (3) < Employees (4): with Employees on the left, the build
  // flips to... the right side here IS Departments, so build=right; write a
  // reversed query to see build=left.
  std::string printed = PrintPhysicalPlan(phys);
  EXPECT_NE(printed.find("HashJoin[build=right"), std::string::npos) << printed;

  AlgPtr reversed = PlanOf(
      "select distinct struct(a: e.name, b: d.name) "
      "from d in Departments, e in Employees where e.dno = d.dno");
  // Left side Departments is smaller: build stays... left=Departments(3) <
  // right=Employees(4) -> build_is_left.
  std::string printed2 = PrintPhysicalPlan(PlanPhysical(reversed, db_));
  EXPECT_NE(printed2.find("HashJoin[build=left"), std::string::npos)
      << printed2;
  CheckAllEngines(
      "select distinct struct(a: e.name, b: d.name) "
      "from d in Departments, e in Employees where e.dno = d.dno");
}

TEST_F(PipelineTest, EnginesAgreeOnPaperQueries) {
  const char* queries[] = {
      "select distinct struct(E: e.name, C: c.name) "
      "from e in Employees, c in e.children",
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments",
      "select distinct struct(E: e.name, M: count(select distinct c "
      "from c in e.children "
      "where for all d in e.manager.children: c.age > d.age)) "
      "from e in Employees",
      "select distinct e.name from e in Employees "
      "where e.salary < max(select m.salary from m in Managers "
      "where e.age > m.age)",
      "select distinct e.dno, avg(e.salary) from Employees e "
      "where e.age > 30 group by e.dno",
      "select distinct d.name from d in Departments "
      "where count(select e from e in Employees where e.dno = d.dno) = 0",
      "select e.dno from e in Employees",  // bag
      "count(select e from e in Employees)",
  };
  for (const char* q : queries) CheckAllEngines(q);
}

TEST_F(PipelineTest, EnginesAgreeOnQueryE) {
  Database uni = testing::TinyUniversity();
  const char* q =
      "select distinct s.name from s in Students "
      "where for all c in select c from c in Courses where c.title = 'DB': "
      "exists t in Transcripts: t.sid = s.sid and t.cno = c.cno";
  AlgPtr logical = UnnestComp(Normalize(ParseOQL(q)), uni.schema());
  PhysPtr phys = PlanPhysical(logical, uni);
  EXPECT_EQ(ExecutePipelined(phys, uni),
            Value::Set({Value::Str("s0"), Value::Str("s3")}));
}

TEST_F(PipelineTest, OuterJoinsAlwaysProbeWithLeft) {
  // An outer join must not flip its build side even when the left input is
  // smaller (padding is per left row). A bag-valued nest keeps the outer
  // join; an aggregate would fuse into a HashNestJoin.
  AlgPtr logical = PlanOf(
      "select distinct struct(D: d.name, A: (select e.age from e in "
      "Employees where e.dno = d.dno)) from d in Departments");
  PhysPtr phys = PlanPhysical(logical, db_);
  EXPECT_NE(PrintPhysicalPlan(phys).find("HashOuterJoin[build=right"),
            std::string::npos);
}

TEST_F(PipelineTest, UnitRowEmitsExactlyOnce) {
  auto unit = std::make_shared<PhysOp>();
  unit->kind = PhysKind::kUnitRow;
  unit->pred = Expr::True();
  auto reduce = std::make_shared<PhysOp>();
  reduce->kind = PhysKind::kReduce;
  reduce->left = unit;
  reduce->monoid = MonoidKind::kSum;
  reduce->head = Expr::Int(1);
  reduce->pred = Expr::True();
  EXPECT_EQ(ExecutePipelined(reduce, db_), Value::Int(1));
}

TEST_F(PipelineTest, ScalarNestEmitsZeroRowOnEmptyInput) {
  // A scalar (key-less) HashNest over an empty input still emits one group
  // holding the monoid zero, so the Reduce above folds exactly one row —
  // serially and when the spine's morsels all come back empty.
  auto scan = std::make_shared<PhysOp>();
  scan->kind = PhysKind::kTableScan;
  scan->extent = "Employees";
  scan->var = "e";
  scan->pred = Expr::False();  // nothing survives
  auto nest = std::make_shared<PhysOp>();
  nest->kind = PhysKind::kHashNest;
  nest->left = scan;
  nest->monoid = MonoidKind::kAll;
  nest->head = Expr::True();
  nest->var = "v";
  nest->pred = Expr::True();
  auto reduce = std::make_shared<PhysOp>();
  reduce->kind = PhysKind::kReduce;
  reduce->left = nest;
  reduce->monoid = MonoidKind::kBag;
  reduce->head = Expr::Var("v");
  reduce->pred = Expr::True();
  SlotPlan plan = CompileSlotPlan(reduce, db_);
  const Value zero_row = Value::Bag({Value::Bool(true)});  // zero of all
  EXPECT_EQ(ExecuteSlotPlan(plan, db_), zero_row) << "serial";
  ExecOptions par;
  par.n_threads = 4;
  par.morsel_size = 1;  // one morsel per employee
  ExecTotals totals;
  par.totals = &totals;
  EXPECT_EQ(ExecuteSlotPlan(plan, db_, par), zero_row) << "4 threads";
  EXPECT_STREQ(totals.mode, "spine-nest");
  EXPECT_EQ(totals.morsels, 4u);
}

TEST_F(PipelineTest, OptimizerUsesPipelineByDefault) {
  OptimizerOptions pipelined, materializing;
  materializing.pipelined_execution = false;
  const char* q = "select distinct e.name from e in Employees where e.age > 35";
  EXPECT_EQ(RunOQL(db_, q, pipelined), RunOQL(db_, q, materializing));
}

}  // namespace
}  // namespace ldb
