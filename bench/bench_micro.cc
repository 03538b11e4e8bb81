// Micro-benchmarks of the optimizer stages themselves (google-benchmark):
// lexing/parsing, translation, normalization, unnesting, simplification, and
// full compilation, plus value-layer probes (set canonicalization) and
// per-row layer probes (BM_Layer_*: ns per scan row, projection, compare,
// hash probe and fold). The paper claims the unnesting algorithm "takes time
// linear to the size of the query" (Section 8); BM_Unnest_ChainLength checks
// that compile time grows roughly linearly in the number of nested levels.

#include <benchmark/benchmark.h>

#include <random>
#include <unordered_map>
#include <string>
#include <vector>

#include "src/lambdadb.h"
#include "src/runtime/frame.h"
#include "src/workload/company.h"

namespace {

using namespace ldb;

const char* kQueryD =
    "select distinct struct(E: e.name, M: count(select distinct c "
    "from c in e.children "
    "where for all d in e.manager.children: c.age > d.age)) "
    "from e in Employees";

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(oql::Parse(kQueryD));
  }
}
BENCHMARK(BM_Parse);

void BM_Translate(benchmark::State& state) {
  oql::NodePtr ast = oql::Parse(kQueryD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oql::Translate(ast));
  }
}
BENCHMARK(BM_Translate);

void BM_Normalize(benchmark::State& state) {
  ExprPtr calculus = ParseOQL(kQueryD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Normalize(calculus));
  }
}
BENCHMARK(BM_Normalize);

void BM_Unnest(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  ExprPtr normalized = Normalize(ParseOQL(kQueryD));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnnestComp(normalized, schema));
  }
}
BENCHMARK(BM_Unnest);

void BM_FullCompile(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  Optimizer opt(schema);
  ExprPtr calculus = ParseOQL(kQueryD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Compile(calculus));
  }
}
BENCHMARK(BM_FullCompile);

// Builds a query with `depth` levels of correlated aggregation:
//   count(select e2 ... where e2.dno = e.dno and count(...) >= 0)
std::string NestedQuery(int depth) {
  std::string inner = "0";
  for (int i = depth; i >= 1; --i) {
    std::string v = "e" + std::to_string(i);
    std::string outer_var = i == 1 ? std::string("e0") : "e" + std::to_string(i - 1);
    inner = "count(select " + v + " from " + v + " in Employees where " + v +
            ".dno = " + outer_var + ".dno and " + inner + " >= 0)";
  }
  return "select distinct e0.name from e0 in Employees where " + inner +
         " >= 0";
}

void BM_Unnest_ChainLength(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  ExprPtr normalized = Normalize(ParseOQL(NestedQuery(static_cast<int>(state.range(0)))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnnestComp(normalized, schema));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Unnest_ChainLength)->DenseRange(1, 8)->Complexity();

void BM_Simplify(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  AlgPtr plan = UnnestComp(
      Normalize(ParseOQL("select distinct e.dno, avg(e.salary) "
                         "from Employees e group by e.dno")),
      schema);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Simplify(plan, schema));
  }
}
BENCHMARK(BM_Simplify);

void BM_HashJoinExecution(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  p.n_departments = std::max<int>(4, static_cast<int>(state.range(0) / 40));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct struct(e: e.name, d: d.name) "
      "from e in Employees, d in Departments where e.dno = d.dno"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Execute(q, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinExecution)->Arg(1000)->Arg(4000)->Arg(16000);

// Engine comparison: pipelined Volcano iterators vs the materializing
// executor. The existential query shows the pipeline's short-circuit: the
// root `some` stops pulling at the first witness, while the materializing
// engine computes every stream fully.
void BM_Engine_Pipelined_Exists(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "exists(select e from e in Employees, d in Departments "
      "where e.dno = d.dno)"));
  PhysPtr phys = PlanPhysical(q.simplified, db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePipelined(phys, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Pipelined_Exists)->Arg(1000)->Arg(8000);

void BM_Engine_Materializing_Exists(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "exists(select e from e in Employees, d in Departments "
      "where e.dno = d.dno)"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePlan(q.simplified, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Materializing_Exists)->Arg(1000)->Arg(8000);

void BM_Engine_Pipelined_GroupBy(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct e.dno, avg(e.salary) from Employees e group by e.dno"));
  PhysPtr phys = PlanPhysical(q.simplified, db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePipelined(phys, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Pipelined_GroupBy)->Arg(1000)->Arg(8000);

void BM_Engine_Materializing_GroupBy(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct e.dno, avg(e.salary) from Employees e group by e.dno"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePlan(q.simplified, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Materializing_GroupBy)->Arg(1000)->Arg(8000);

// Value-layer probes: canonicalizing a set result. A stream of n strings or
// 3-field tuples (about 2% duplicates, like P-JA's names) is canonicalized
// whole (Value::Set), as 16 per-morsel runs (the parallel root reduce's
// per-worker share), and by merging those 16 runs (its finish after the
// join, over 1 or 4 key ranges). Args: n, tuples (0/1)[, ranges].
Elems CanonStream(int64_t n, bool tuples) {
  std::mt19937 rng(42);
  const uint32_t domain = static_cast<uint32_t>(n - n / 50);
  Elems out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t k = rng() % domain;
    Value name = Value::Str("employee-" + std::to_string(k));
    if (!tuples) {
      out.push_back(std::move(name));
      continue;
    }
    out.push_back(Value::Tuple({{"name", std::move(name)},
                                {"age", Value::Int(k % 60)},
                                {"salary", Value::Real(1000.0 + k % 977)}}));
  }
  return out;
}

// The stream cut into 16 consecutive runs, each canonical when `sorted`.
std::vector<Elems> CanonRuns(const Elems& stream, bool sorted) {
  std::vector<Elems> runs(16);
  for (size_t i = 0; i < stream.size(); ++i) {
    runs[i * runs.size() / stream.size()].push_back(stream[i]);
  }
  if (sorted) {
    for (Elems& r : runs) CanonicalizeElems(&r, /*dedup=*/true);
  }
  return runs;
}

void BM_Canon_SetWhole(benchmark::State& state) {
  const Elems stream = CanonStream(state.range(0), state.range(1) != 0);
  Value result;
  for (auto _ : state) {
    state.PauseTiming();
    result = Value();  // frees the previous result outside the timing
    Elems copy = stream;
    state.ResumeTiming();
    result = Value::Set(std::move(copy));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Canon_SetWhole)->ArgsProduct({{1000, 32000}, {0, 1}});

void BM_Canon_Runs16(benchmark::State& state) {
  const std::vector<Elems> runs =
      CanonRuns(CanonStream(state.range(0), state.range(1) != 0), false);
  std::vector<Elems> copy;
  for (auto _ : state) {
    state.PauseTiming();
    copy = runs;
    state.ResumeTiming();
    for (Elems& r : copy) CanonicalizeElems(&r, /*dedup=*/true);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Canon_Runs16)->ArgsProduct({{1000, 32000}, {0, 1}});

void BM_Canon_MergeRuns16(benchmark::State& state) {
  const std::vector<Elems> runs =
      CanonRuns(CanonStream(state.range(0), state.range(1) != 0), true);
  const int ranges = static_cast<int>(state.range(2));
  std::vector<Elems> copy;
  Elems merged;
  for (auto _ : state) {
    state.PauseTiming();
    copy = runs;
    merged = Elems();
    state.ResumeTiming();
    merged = MergeCanonicalRunsParallel(copy, /*dedup=*/true, ranges, nullptr);
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Canon_MergeRuns16)
    ->ArgsProduct({{1000, 32000}, {0, 1}, {1, 4}})
    ->UseRealTime();

// Per-row layer probes over the 32 000-employee Company database: what one
// scan row, one ref -> attribute projection, one value compare, one hash
// probe and one fold step cost. Each reports `ns_per_op` (wall time per
// operation, serial).
const Database& LayerDb() {
  static const Database db = [] {
    workload::CompanyParams p;
    p.n_employees = 32000;
    p.n_departments = 800;
    p.n_managers = 320;
    p.seed = 1;
    return workload::MakeCompanyDatabase(p);
  }();
  return db;
}

// Each employee's value of `attr`, in extent order.
Elems EmployeeAttr(const std::string& attr) {
  const Database& db = LayerDb();
  Elems out;
  for (const Value& e : db.Extent("Employees")) out.push_back(db.Navigate(e, attr));
  return out;
}

void SetNsPerOp(benchmark::State& state, size_t ops_per_iteration) {
  state.counters["ns_per_op"] = benchmark::Counter(
      static_cast<double>(ops_per_iteration) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_Layer_ScanRow(benchmark::State& state) {
  const Database& db = LayerDb();
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL("count(select e from e in Employees)"));
  for (auto _ : state) benchmark::DoNotOptimize(opt.Execute(q, db));
  SetNsPerOp(state, db.Extent("Employees").size());
}
BENCHMARK(BM_Layer_ScanRow);

void BM_Layer_Projection(benchmark::State& state) {
  const Database& db = LayerDb();
  const std::vector<Value>& refs = db.Extent("Employees");
  auto slot = std::make_shared<CExpr>();
  slot->kind = CExprKind::kSlot;
  slot->slot = 0;
  CExpr proj;
  proj.kind = CExprKind::kProj;
  proj.proj_id = 0;
  proj.name = "salary";
  proj.a = slot;
  FrameEvaluator fev(db);
  Frame frame(1);
  for (auto _ : state) {
    double sum = 0;
    for (const Value& ref : refs) {
      frame[0] = ref;
      Value scratch;
      sum += fev.EvalPtr(proj, frame, &scratch)->AsNumeric();
    }
    benchmark::DoNotOptimize(sum);
  }
  SetNsPerOp(state, refs.size());
}
BENCHMARK(BM_Layer_Projection);

void BM_Layer_Compare(benchmark::State& state) {
  const Elems names = EmployeeAttr("name");
  for (auto _ : state) {
    int less = 0;
    for (size_t i = 1; i < names.size(); ++i) {
      less += Value::Compare(names[i - 1], names[i]) < 0;
    }
    benchmark::DoNotOptimize(less);
  }
  SetNsPerOp(state, names.size() - 1);
}
BENCHMARK(BM_Layer_Compare);

void BM_Layer_HashProbe(benchmark::State& state) {
  const Database& db = LayerDb();
  std::unordered_map<Value, int, ValueHash> table;
  for (const Value& d : db.Extent("Departments")) {
    table.emplace(db.Navigate(d, "dno"), 1);
  }
  const Elems keys = EmployeeAttr("dno");
  for (auto _ : state) {
    int hits = 0;
    for (const Value& k : keys) hits += table.count(k) != 0;
    benchmark::DoNotOptimize(hits);
  }
  SetNsPerOp(state, keys.size());
}
BENCHMARK(BM_Layer_HashProbe);

void BM_Layer_Fold(benchmark::State& state) {
  const Elems salaries = EmployeeAttr("salary");
  for (auto _ : state) {
    Accumulator acc(MonoidKind::kSum);
    for (const Value& v : salaries) acc.Add(v);
    benchmark::DoNotOptimize(acc.Finish());
  }
  SetNsPerOp(state, salaries.size());
}
BENCHMARK(BM_Layer_Fold);

}  // namespace

BENCHMARK_MAIN();
