// The queries every workload draws on, and the layer-by-layer probes the
// traced runs use: the compile pipeline called stage by stage through each
// module's public functions, and direct serial/parallel executions of the
// paper's analytic queries.

#ifndef LDBBENCH_STAGES_H_
#define LDBBENCH_STAGES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ldbbench/src/common.h"
#include "src/lambdadb.h"
#include "src/workload/company.h"
#include "src/workload/university.h"

namespace ldbbench {

/// The paper's analytic queries (same texts as bench/bench_unnesting.cc).
struct NamedQuery {
  const char* key;  ///< metric infix: pa, pja, cb, pdeep, pscan
  const char* oql;
};
extern const NamedQuery kAnalytic[5];

/// The SERVICE statement mix (same texts as tools/ldb_loadgen.cc).
struct MixStatement {
  const char* key;  ///< metric suffix: type_a, type_ja, count_bug, lookup
  const char* oql;
  bool parameterized;  ///< binds $1 to a department number
};
extern const MixStatement kMix[4];

/// Company database sized the way bench_unnesting and ldb_server size it.
ldb::Database MakeCompany(int employees, uint64_t seed);

/// Order-independent digest of a result: element count plus the wrapping
/// sum of element hashes (a scalar counts as one element).
struct Digest {
  uint64_t n = 0;
  uint64_t sum = 0;
  bool operator==(const Digest& o) const { return n == o.n && sum == o.sum; }
};
Digest DigestOf(const ldb::Value& v);
Digest DigestOfRows(const std::vector<ldb::Value>& rows);

/// Wall time of each public pipeline call for one query, microseconds.
struct StageTimes {
  double parse = 0, translate = 0, typecheck = 0, normalize = 0, unnest = 0,
         simplify = 0, physical = 0, slot_compile = 0, exec = 0;
  uint64_t normalized_nodes = 0;
  uint64_t plan_ops = 0;
  double Sum() const {
    return parse + translate + typecheck + normalize + unnest + simplify +
           physical + slot_compile + exec;
  }
};

/// Runs `oql` through oql::Parse, oql::TranslateWithOrdering, TypeCheck,
/// Normalize, UnnestComp, Simplify, TypeCheckPlan, PlanPhysical,
/// CompileSlotPlan and (when `execute`) ExecuteSlotPlan, timing each call
/// and recording a span under `parent` when `tracer` is set. The query must
/// be comprehension-rooted and unordered. Returns the result (null when not
/// executed).
ldb::Value RunStages(const ldb::Database& db, const std::string& oql,
                     const std::map<std::string, ldb::Value>* params,
                     bool execute, StageTimes* times, Tracer* tracer = nullptr,
                     int parent = -1);

/// Per-layer compile metrics (oql.*, core.*, runtime.physical_us,
/// runtime.slot_compile_us) as medians over `samples`.
void ReportStageMedians(const std::vector<StageTimes>& samples, Report* r);

/// service.hit_rate and service.evictions_per_query from plan-cache counter
/// deltas over the timed window.
void ReportPlanCache(double hits, double misses, double evictions, Report* r);

struct RuntimeResult {
  double serial_ms = 0;    ///< median serial execution
  double parallel_ms = 0;  ///< median execution with `threads` workers
  ldb::Value serial;
  ldb::Value parallel;
};

/// Executes one compiled analytic query directly on the runtime: serially
/// and with `threads` workers, `reps` times each (medians), plus one
/// profiled serial run for the operator row count. Records
/// runtime.<key>.{serial_ms,speedup_x,ns_per_row,rows}; each execution is
/// one traced request when `tracer` is set.
RuntimeResult MeasureRuntime(const ldb::Database& db, const NamedQuery& q,
                             int threads, int reps, Report* r,
                             Tracer* tracer = nullptr);

}  // namespace ldbbench

#endif  // LDBBENCH_STAGES_H_
