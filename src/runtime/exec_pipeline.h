// Pipelined execution of physical plans.
//
// Two engines live here:
//
//  * The SLOT-FRAME engine (the default): the plan is first slot-compiled
//    (slot_plan.h) so rows are flat Value frames and variable references are
//    integer slots; iterators implement the same Volcano open/next/close
//    protocol but communicate through a shared per-thread frame instead of
//    passing Env objects. With ExecOptions::n_threads > 1 the engine runs
//    morsel-driven parallel: the driving table scan is split into morsels,
//    workers execute the streaming spine against shared read-only hash/join
//    build tables, and per-morsel partial accumulators (or partial group
//    tables for a spine HashNest) are merged in morsel order — results are
//    identical to the serial path (see docs/EXECUTOR.md for why).
//
//  * The legacy ENV engine (RowIterator/MakeIterator): string-keyed
//    environments, kept as a reference implementation and for tests that
//    inspect bindings by name. ExecOptions::use_slot_frames = false routes
//    through it.
//
// Blocking points are exactly the hash builds (join build sides, grouping
// tables) — everything else streams, and the root reduce stops pulling the
// moment a quantifier saturates.

#ifndef LAMBDADB_RUNTIME_EXEC_PIPELINE_H_
#define LAMBDADB_RUNTIME_EXEC_PIPELINE_H_

#include <memory>

#include "src/runtime/expr_eval.h"
#include "src/runtime/physical_plan.h"
#include "src/runtime/slot_plan.h"

namespace ldb {

/// A pull-based row iterator over environments (legacy Env engine).
class RowIterator {
 public:
  virtual ~RowIterator() = default;
  /// Acquires resources / builds hash tables. Must be called before Next.
  virtual void Open() = 0;
  /// Produces the next row into *out; returns false at end of stream.
  virtual bool Next(Env* out) = 0;
  /// Releases buffered state. Idempotent.
  virtual void Close() {}
};

/// Builds the legacy Env iterator tree for a (non-Reduce) physical subtree.
/// Exposed for tests; `ev` must outlive the returned iterator.
std::unique_ptr<RowIterator> MakeIterator(const PhysPtr& op, ExprEvaluator* ev);

/// Executes a Reduce-rooted physical plan by pulling rows through the
/// pipeline; short-circuits saturated quantifier roots. `options` selects
/// the engine (slot frames vs legacy Env) and the degree of parallelism.
Value ExecutePipelined(const PhysPtr& plan, const Database& db,
                       const ExecOptions& options = {});

/// Executes an already slot-compiled plan (serial or parallel per
/// `options`). Exposed so benchmarks can separate compile time from run
/// time; `plan` must come from CompileSlotPlan against the same `db`.
Value ExecuteSlotPlan(const SlotPlan& plan, const Database& db,
                      const ExecOptions& options = {});

/// Merges canonical runs exactly as MergeCanonicalRuns (value.h) does, over
/// `n_ranges` threads: splitters sampled from the runs cut every run into
/// disjoint key ranges (all cut points are found before any value moves),
/// each range merges on its own thread, and the ranges concatenate by move.
/// Values are moved out of `runs`. Polls `cancel` before each range's merge
/// and between the concatenated ranges; every thread is joined before an
/// exception leaves. The parallel root reduce uses it for set/bag roots.
Elems MergeCanonicalRunsParallel(std::vector<Elems>& runs, bool dedup,
                                 int n_ranges, const CancelToken* cancel);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_EXEC_PIPELINE_H_
