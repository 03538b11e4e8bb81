#include "ldbbench/src/stages.h"

#include <algorithm>

namespace ldbbench {

using namespace ldb;

const NamedQuery kAnalytic[5] = {
    {"pa",
     "select distinct struct(D: d.name, total: sum(select e.salary "
     "from e in Employees where e.dno = d.dno)) from d in Departments"},
    {"pja",
     "select distinct e.name from e in Employees "
     "where e.salary < max(select m.salary from m in Managers "
     "where e.age > m.age)"},
    {"cb",
     "select distinct d.name from d in Departments "
     "where count(select e from e in Employees where e.dno = d.dno) = 0"},
    {"pdeep",
     "select distinct struct(E: e.name, M: m.name, D: d.name) "
     "from e in Employees, d in Departments, m in Managers "
     "where e.dno = d.dno and m.name = e.manager.name "
     "and e.age < m.age and e.salary < m.salary and d.budget > e.salary"},
    {"pscan",
     "sum(select e.salary + e.age * 100 from e in Employees "
     "where e.age > 21 and e.age < 65 and e.salary > 35000.0)"},
};

const MixStatement kMix[4] = {
    {"type_a", kAnalytic[0].oql, false},
    {"type_ja", kAnalytic[1].oql, false},
    {"count_bug", kAnalytic[2].oql, false},
    {"lookup", "select distinct e.name from e in Employees where e.dno = $1",
     true},
};

Database MakeCompany(int employees, uint64_t seed) {
  workload::CompanyParams p;
  p.n_departments = std::max(4, employees / 40);
  p.n_employees = employees;
  p.n_managers = std::max(2, employees / 100);
  p.seed = seed;
  return workload::MakeCompanyDatabase(p);
}

Digest DigestOf(const Value& v) {
  if (!v.is_collection()) return DigestOfRows({v});
  return DigestOfRows(v.AsElems());
}

Digest DigestOfRows(const std::vector<Value>& rows) {
  Digest d;
  for (const Value& row : rows) {
    ++d.n;
    d.sum += static_cast<uint64_t>(row.Hash());
  }
  return d;
}

namespace {

uint64_t CountExpr(const ExprPtr& e) {
  if (!e) return 0;
  uint64_t n = 1 + CountExpr(e->a) + CountExpr(e->b) + CountExpr(e->c);
  for (const auto& f : e->fields) n += CountExpr(f.second);
  for (const Qualifier& q : e->quals) n += CountExpr(q.expr);
  return n;
}

uint64_t CountOps(const AlgPtr& op) {
  if (!op) return 0;
  return 1 + CountOps(op->left) + CountOps(op->right);
}

// Times one call, adding its microseconds to *acc and, when tracing, a span.
template <typename Fn>
auto Timed(double* acc, Tracer* tracer, const char* name, const char* layer,
           int parent, Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  auto out = fn();
  Clock::time_point t1 = Clock::now();
  *acc += UsBetween(t0, t1);
  if (tracer) tracer->Add(name, layer, parent, Tracer::ToUs(t0), Tracer::ToUs(t1));
  return out;
}

}  // namespace

Value RunStages(const Database& db, const std::string& oql,
                const std::map<std::string, Value>* params, bool execute,
                StageTimes* t, Tracer* tr, int parent) {
  const Schema& schema = db.schema();
  oql::NodePtr ast = Timed(&t->parse, tr, "oql::Parse", "oql", parent,
                           [&] { return oql::Parse(oql); });
  oql::OrderedQuery q =
      Timed(&t->translate, tr, "oql::Translate", "oql", parent,
            [&] { return oql::TranslateWithOrdering(ast); });
  if (q.ordered) throw Error("RunStages: ordered queries are not staged");
  Timed(&t->typecheck, tr, "TypeCheck", "core", parent,
        [&] { return TypeCheck(q.comp, schema); });
  ExprPtr normalized = Timed(&t->normalize, tr, "Normalize", "core", parent,
                             [&] { return Normalize(q.comp); });
  if (normalized->kind != ExprKind::kComp) {
    throw Error("RunStages: query is not comprehension-rooted");
  }
  AlgPtr plan = Timed(&t->unnest, tr, "UnnestComp", "core", parent,
                      [&] { return UnnestComp(normalized, schema); });
  AlgPtr simplified = Timed(&t->simplify, tr, "Simplify", "core", parent,
                            [&] { return Simplify(plan, schema); });
  Timed(&t->typecheck, tr, "TypeCheckPlan", "core", parent,
        [&] { return TypeCheckPlan(simplified, schema); });
  PhysPtr phys = Timed(&t->physical, tr, "PlanPhysical", "runtime", parent,
                       [&] { return PlanPhysical(simplified, db); });
  SlotPlan slots = Timed(&t->slot_compile, tr, "CompileSlotPlan", "runtime",
                         parent, [&] { return CompileSlotPlan(phys, db); });
  t->normalized_nodes = CountExpr(normalized);
  t->plan_ops = CountOps(simplified);
  if (!execute) return Value();
  ExecOptions eo;
  eo.params = params;
  return Timed(&t->exec, tr, "ExecuteSlotPlan", "runtime", parent,
               [&] { return ExecuteSlotPlan(slots, db, eo); });
}

void ReportStageMedians(const std::vector<StageTimes>& samples, Report* r) {
  auto med = [&](auto field) {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const StageTimes& s : samples) v.push_back(static_cast<double>(field(s)));
    return Median(std::move(v));
  };
  r->Set("oql.parse_us", med([](const StageTimes& s) { return s.parse; }), "us");
  r->Set("oql.translate_us", med([](const StageTimes& s) { return s.translate; }), "us");
  r->Set("core.normalize_us", med([](const StageTimes& s) { return s.normalize; }), "us");
  r->Set("core.unnest_us", med([](const StageTimes& s) { return s.unnest; }), "us");
  r->Set("core.simplify_us", med([](const StageTimes& s) { return s.simplify; }), "us");
  r->Set("core.typecheck_us", med([](const StageTimes& s) { return s.typecheck; }), "us");
  r->Set("core.normalized_nodes",
         med([](const StageTimes& s) { return s.normalized_nodes; }), "count");
  r->Set("core.plan_ops", med([](const StageTimes& s) { return s.plan_ops; }), "count");
  r->Set("runtime.physical_us", med([](const StageTimes& s) { return s.physical; }), "us");
  r->Set("runtime.slot_compile_us",
         med([](const StageTimes& s) { return s.slot_compile; }), "us");
}

void ReportPlanCache(double hits, double misses, double evictions, Report* r) {
  const double lookups = hits + misses;
  r->Set("service.hit_rate", lookups > 0 ? hits / lookups : 0, "ratio");
  r->Set("service.evictions_per_query", lookups > 0 ? evictions / lookups : 0, "ratio");
}

RuntimeResult MeasureRuntime(const Database& db, const NamedQuery& q,
                             int threads, int reps, Report* r, Tracer* tracer) {
  CompiledQuery cq = Optimizer(db.schema()).Compile(ParseOQL(q.oql));
  SlotPlan slots = CompileSlotPlan(PlanPhysical(cq.simplified, db), db);

  ExecOptions serial_opts;
  ExecOptions par_opts;
  par_opts.n_threads = threads;
  std::vector<double> serial_ms, par_ms;
  RuntimeResult out;
  // Interleave serial and parallel repetitions so host noise hits both.
  for (int i = 0; i < reps; ++i) {
    for (int mode = 0; mode < 2; ++mode) {
      const ExecOptions& eo = mode == 0 ? serial_opts : par_opts;
      if (tracer) tracer->BeginRequest("request", "bench", Tracer::Now());
      int span = tracer ? tracer->Open(mode == 0 ? "ExecuteSlotPlan/serial"
                                                 : "ExecuteSlotPlan/parallel",
                                       "runtime", 0)
                        : -1;
      Clock::time_point t0 = Clock::now();
      Value v = ExecuteSlotPlan(slots, db, eo);
      Clock::time_point t1 = Clock::now();
      if (tracer) {
        tracer->Close(span);
        tracer->Close(0);
        tracer->EndRequest();
      }
      (mode == 0 ? serial_ms : par_ms).push_back(MsBetween(t0, t1));
      (mode == 0 ? out.serial : out.parallel) = std::move(v);
    }
  }

  QueryProfiler prof;
  ExecOptions prof_opts;
  prof_opts.profiler = &prof;
  ExecuteSlotPlan(slots, db, prof_opts);
  uint64_t rows = 0;
  for (const OperatorStats* s : prof.Operators()) rows += s->rows_out;

  out.serial_ms = Median(serial_ms);
  out.parallel_ms = Median(par_ms);
  const double serial = out.serial_ms;
  const double par = out.parallel_ms;
  const std::string p = std::string("runtime.") + q.key + ".";
  r->Set(p + "serial_ms", serial, "ms");
  r->Set(p + "speedup_x", par > 0 ? serial / par : 0, "x");
  r->Set(p + "ns_per_row", rows > 0 ? serial * 1e6 / static_cast<double>(rows) : 0,
         "ns");
  r->Set(p + "rows", static_cast<double>(rows), "count");
  return out;
}

}  // namespace ldbbench
