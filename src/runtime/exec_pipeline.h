// Pipelined execution of physical plans on the slot-frame engine.
//
// The plan is first slot-compiled (slot_plan.h) so rows are flat Value
// frames and variable references are integer slots; iterators implement the
// Volcano open/next/close protocol and communicate through a shared
// per-thread frame. With ExecOptions::n_threads > 1 the engine runs
// morsel-driven parallel: the driving table scan is split into morsels,
// workers execute the streaming spine against shared read-only hash/join
// build tables, and per-morsel partial accumulators (or partial group tables
// for a spine HashNest) are merged in morsel order — results are identical
// to the serial path (see docs/EXECUTOR.md for why). The materializing
// executor (eval_algebra.h) is the reference semantics it is tested against.
//
// Blocking points are exactly the hash builds (join build sides, grouping
// tables) — everything else streams, and the root reduce stops pulling the
// moment a quantifier saturates.

#ifndef LAMBDADB_RUNTIME_EXEC_PIPELINE_H_
#define LAMBDADB_RUNTIME_EXEC_PIPELINE_H_

#include "src/runtime/physical_plan.h"
#include "src/runtime/slot_plan.h"

namespace ldb {

/// Executes a Reduce-rooted physical plan: slot-compiles it, then pulls
/// rows through the pipeline (ExecuteSlotPlan); short-circuits saturated
/// quantifier roots. `options` sets the degree of parallelism.
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
