// Set, bag and list roots under every engine (docs/EXECUTOR.md, "Canonical
// collection results"). The parallel spine reduce canonicalizes each
// morsel's run in its worker and merges the runs after the join; list runs
// concatenate in morsel order. Every result must be byte-identical to the
// baseline interpreter, the materializing executor and the serial slot
// engine at every thread count and morsel size. Results are
// compared with ValueToText, not ==, so a wrong representative of
// compare-equal values (3 and 3.0, -0.0 and 0.0, NaNs of either sign)
// fails. Cancellation and a memory-budget abort around the merge must
// unwind with every charge returned.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/optimizer.h"
#include "src/obs/resource.h"
#include "src/runtime/cancel.h"
#include "src/runtime/eval_algebra.h"
#include "src/runtime/eval_calculus.h"
#include "src/runtime/exec_pipeline.h"
#include "src/runtime/serialize.h"
#include "src/verify/calc_parser.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// A salary column full of compare-equal twins whose first occurrence in
// extent order is not the one a sort would pick first: 3.0 before 3, -0.0
// before 0 and 0.0, -NaN before NaN, 2^53 as a real before the int 2^53
// (and 2^53 + 1, which is neither).
Value Salary(size_t i) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  switch (i % 11) {
    case 0: return Value::Real(3.0);
    case 1: return Value::Int(3);
    case 2: return Value::Real(-0.0);
    case 3: return Value::Int(0);
    case 4: return Value::Real(0.0);
    case 5: return Value::Real(-nan);
    case 6: return Value::Real(nan);
    case 7: return Value::Int(static_cast<int64_t>(i % 23));
    case 8: return Value::Real(static_cast<double>(i % 19) + 0.5);
    case 9: return Value::Real((i / 11) % 2 ? 0.0 : -0.0);
    default: {
      const size_t k = (i / 11) % 3;
      return k == 0 ? Value::Real(0x1p53) : Value::Int(big + (k == 1 ? 1 : 0));
    }
  }
}

// `n` employees: names repeat within and across morsels, ages are the
// extent position (so age filters empty whole morsels), children sets
// repeat (nested collections as elements).
Database MakeDb(size_t n) {
  Database db(workload::CompanySchema());
  std::vector<Value> people;
  for (int p = 0; p < 5; ++p) {
    people.push_back(db.Insert(
        "Person", Value::Tuple({{"name", Value::Str("p" + std::to_string(p))},
                                {"age", Value::Int(p)}})));
  }
  for (size_t i = 0; i < n; ++i) {
    Elems kids;
    if (i % 4 != 0) kids.push_back(people[i % 5]);
    if (i % 3 == 0) kids.push_back(people[(i * 3) % 5]);
    db.Insert("Employee",
              Value::Tuple({{"name", Value::Str("n" + std::to_string((i * 7) % 41))},
                            {"age", Value::Int(static_cast<int64_t>(i))},
                            {"salary", Salary(i)},
                            {"dno", Value::Int(static_cast<int64_t>(i % 4))},
                            {"manager", Value::Null()},
                            {"children", Value::Set(std::move(kids))}}));
  }
  return db;
}

class CollectionRootTest : public ::testing::Test {
 protected:
  Database db_ = MakeDb(300);

  // The unnesting pipeline rejects list comprehensions (the paper's future
  // work), so a list root is planned as the bag query's plan with its root
  // monoid swapped; the baseline still evaluates the list term itself.
  AlgPtr Plan(const std::string& calc) {
    const bool list = calc.rfind("list{", 0) == 0;
    CompiledQuery q = Optimizer(db_.schema())
                          .Compile(ParseCalculus(list ? "bag" + calc.substr(4)
                                                      : calc));
    if (!list) return q.simplified;
    const AlgOp& root = *q.simplified;
    return AlgOp::Reduce(root.left, MonoidKind::kList, root.head, root.pred);
  }

  SlotPlan CompileSlots(const std::string& calc) {
    return CompileSlotPlan(PlanPhysical(Plan(calc), db_), db_);
  }

  // Runs `calc` on every engine and checks each prints exactly what the
  // baseline prints; returns that text.
  std::string Check(const std::string& calc) {
    SCOPED_TRACE(calc);
    const std::string expected =
        ValueToText(EvalCalculus(ParseCalculus(calc), db_));
    AlgPtr plan = Plan(calc);
    EXPECT_EQ(ValueToText(ExecutePlan(plan, db_)), expected)
        << "materializing";
    PhysPtr phys = PlanPhysical(plan, db_);
    SlotPlan sp = CompileSlotPlan(phys, db_);
    EXPECT_EQ(ValueToText(ExecuteSlotPlan(sp, db_)), expected)
        << "slot serial";
    for (int threads : {1, 2, 4, 8}) {
      for (size_t morsel : {1, 4, 64}) {
        ExecOptions par;
        par.n_threads = threads;
        par.morsel_size = morsel;
        EXPECT_EQ(ValueToText(ExecuteSlotPlan(sp, db_, par)), expected)
            << threads << " threads, morsel " << morsel;
      }
    }
    return expected;
  }

  static bool TrackerArmed() {
    obs::QueryResourceContext ctx;
    obs::MemoryTracker probe;
    probe.Arm(&ctx);
    return probe.armed();
  }
};

TEST_F(CollectionRootTest, CompareEqualNumbersKeepTheFirstInStream) {
  const std::string set = Check("set{ e.salary | e <- Employees }");
  // The representatives are the first occurrences, whatever their kind.
  EXPECT_NE(set.find("R-0;"), std::string::npos) << set;
  EXPECT_NE(set.find("R-nan;"), std::string::npos) << set;
  EXPECT_EQ(set.find("R0;"), std::string::npos) << set;
  EXPECT_EQ(set.find("i3;"), std::string::npos) << set;
  Check("bag{ e.salary | e <- Employees }");
  Check("list{ e.salary | e <- Employees }");
}

TEST_F(CollectionRootTest, DuplicatesWithinAndAcrossMorsels) {
  Check("set{ e.name | e <- Employees }");
  Check("bag{ e.name | e <- Employees }");
  Check("list{ e.name | e <- Employees }");
  Check("set{ e.dno | e <- Employees }");
}

TEST_F(CollectionRootTest, TupleAndCollectionElements) {
  Check("set{ <N=e.name, S=e.salary> | e <- Employees }");
  Check("bag{ <D=e.dno, S=e.salary> | e <- Employees }");
  Check("set{ e.children | e <- Employees }");
  Check("bag{ e.children | e <- Employees }");
  Check("list{ <N=e.name, K=e.children> | e <- Employees }");
}

TEST_F(CollectionRootTest, EmptyMorselsAndEmptyResults) {
  // Only the first and last stretch of the extent qualify, so the middle
  // morsels contribute empty runs.
  for (const char* m : {"set", "bag", "list"}) {
    Check(std::string(m) +
          "{ e.salary | e <- Employees, ((e.age < 40) or (e.age > 260)) }");
    Check(std::string(m) + "{ e.name | e <- Employees, (e.age < 0) }");
  }
}

TEST_F(CollectionRootTest, OQLSelectDistinct) {
  for (const char* oql :
       {"select distinct e.salary from e in Employees where e.dno = 1",
        "select distinct struct(N: e.name, S: e.salary) from e in Employees",
        "select e.salary from e in Employees"}) {
    SCOPED_TRACE(oql);
    ExprPtr term = ParseOQL(oql);
    CompiledQuery q = Optimizer(db_.schema()).Compile(term);
    SlotPlan sp = CompileSlotPlan(PlanPhysical(q.simplified, db_), db_);
    const std::string expected = ValueToText(EvalCalculus(term, db_));
    for (int threads : {1, 4}) {
      ExecOptions par;
      par.n_threads = threads;
      par.morsel_size = 16;
      EXPECT_EQ(ValueToText(ExecuteSlotPlan(sp, db_, par)), expected);
    }
  }
}

TEST_F(CollectionRootTest, LargeRootsMergeOverKeyRanges) {
  // Enough elements that the merge splits into one key range per worker.
  db_ = MakeDb(9000);
  for (const char* calc :
       {"set{ e.salary | e <- Employees }", "bag{ e.salary | e <- Employees }",
        "set{ <N=e.name, S=e.salary> | e <- Employees }",
        "bag{ e.children | e <- Employees }",
        "list{ e.salary | e <- Employees }"}) {
    SCOPED_TRACE(calc);
    SlotPlan sp = CompileSlots(calc);
    const std::string expected = ValueToText(ExecuteSlotPlan(sp, db_));
    for (int threads : {2, 3, 4, 8}) {
      for (size_t morsel : {64, 1000}) {
        ExecOptions par;
        par.n_threads = threads;
        par.morsel_size = morsel;
        EXPECT_EQ(ValueToText(ExecuteSlotPlan(sp, db_, par)), expected)
            << threads << " threads, morsel " << morsel;
      }
    }
  }
}

// Random runs of numbers rich in compare-equal twins, each canonical.
std::vector<Elems> RandomRuns(std::mt19937& rng, bool dedup) {
  std::vector<Elems> runs(1 + rng() % 9);
  for (Elems& run : runs) {
    const size_t n = rng() % 40;
    for (size_t i = 0; i < n; ++i) run.push_back(Salary(rng() % 97));
    CanonicalizeElems(&run, dedup);
  }
  return runs;
}

TEST_F(CollectionRootTest, ParallelMergeEqualsSerialMerge) {
  std::mt19937 rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    for (bool dedup : {true, false}) {
      const std::vector<Elems> runs = RandomRuns(rng, dedup);
      std::vector<Elems> serial_runs = runs;
      std::vector<ElemSlice> slices;
      for (Elems& r : serial_runs) slices.push_back({r.data(), r.data() + r.size()});
      Elems serial;
      MergeCanonicalRuns(slices, dedup, &serial);
      for (int ranges : {1, 2, 3, 4, 8}) {
        std::vector<Elems> copy = runs;
        Elems merged = MergeCanonicalRunsParallel(copy, dedup, ranges, nullptr);
        EXPECT_EQ(ValueToText(Value::List(merged)),
                  ValueToText(Value::List(serial)))
            << "trial " << trial << ", " << ranges << " ranges";
      }
    }
  }
}

TEST_F(CollectionRootTest, CancelledMergeJoinsAndThrows) {
  std::mt19937 rng(5);
  CancelToken cancel;
  cancel.Cancel();
  for (int ranges : {1, 4}) {
    std::vector<Elems> runs = RandomRuns(rng, true);
    EXPECT_THROW(MergeCanonicalRunsParallel(runs, true, ranges, &cancel),
                 QueryCancelled);
  }
}

TEST_F(CollectionRootTest, CancellationAroundTheMergeUnwindsBalanced) {
  // A second thread cancels at staggered points of the run, the merge
  // included: each run either returns the exact result or throws
  // QueryCancelled, and no charge outlives it.
  db_ = MakeDb(9000);
  SlotPlan sp = CompileSlots("set{ <N=e.name, S=e.salary> | e <- Employees }");
  const std::string expected = ValueToText(ExecuteSlotPlan(sp, db_));
  int cancelled = 0;
  for (int delay_us = 0; delay_us < 4000; delay_us += 200) {
    CancelToken cancel;
    obs::QueryResourceContext ctx;
    ExecOptions exec;
    exec.n_threads = 4;
    exec.morsel_size = 256;
    exec.cancel = &cancel;
    exec.resource = &ctx;
    std::thread canceller([&cancel, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      cancel.Cancel();
    });
    try {
      EXPECT_EQ(ValueToText(ExecuteSlotPlan(sp, db_, exec)), expected);
    } catch (const QueryCancelled&) {
      ++cancelled;
    }
    canceller.join();
    EXPECT_EQ(ctx.InUseBytes(), 0u) << "delay " << delay_us << "us";
  }
  EXPECT_GT(cancelled, 0);
}

TEST_F(CollectionRootTest, BudgetAbortReleasesEveryCharge) {
  if (!TrackerArmed()) GTEST_SKIP() << "metrics compiled out";
  SlotPlan sp = CompileSlots("bag{ e.children | e <- Employees }");
  for (int threads : {1, 4}) {
    obs::QueryResourceContext ctx(/*budget_bytes=*/4096);
    ExecOptions exec;
    exec.n_threads = threads;
    exec.morsel_size = 16;
    exec.resource = &ctx;
    EXPECT_THROW(ExecuteSlotPlan(sp, db_, exec), obs::QueryMemoryExceeded)
        << threads << " threads";
    EXPECT_EQ(ctx.InUseBytes(), 0u) << threads << " threads";
  }
  // Unbudgeted, the fold's charges are handed back when the result leaves
  // the engine.
  for (int threads : {1, 4}) {
    obs::QueryResourceContext ctx;
    ExecOptions exec;
    exec.n_threads = threads;
    exec.morsel_size = 16;
    exec.resource = &ctx;
    ExecuteSlotPlan(sp, db_, exec);
    EXPECT_EQ(ctx.InUseBytes(), 0u) << threads << " threads";
  }
}

}  // namespace
}  // namespace ldb
