// The physical plan layer (paper Section 6: the prototype's final stage
// "translat[es] algebraic forms into physical plans").
//
// A physical plan makes every execution decision explicit that the logical
// algebra leaves open: which join algorithm runs (hash vs nested-loop, with
// extracted equi-keys), which side builds the hash table, whether a scan
// goes through an index, and where grouping hash tables sit.
// ExecutePipelined (exec_pipeline.h) runs it with Volcano-style
// open/next/close iterators; rows flow one at a time, and quantifier roots
// stop pulling as soon as they saturate. The materializing executor
// (eval_algebra.h) runs the logical plan instead; it is the reference the
// pipelined engine is tested against everywhere.

#ifndef LAMBDADB_RUNTIME_PHYSICAL_PLAN_H_
#define LAMBDADB_RUNTIME_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/algebra.h"
#include "src/runtime/database.h"
#include "src/runtime/physical.h"

namespace ldb {

struct PhysOp;
using PhysPtr = std::shared_ptr<const PhysOp>;

enum class PhysKind {
  kUnitRow,        ///< one empty row
  kTableScan,      ///< full extent scan + selection
  kIndexScan,      ///< index lookup + residual selection
  kFilter,         ///< predicate filter
  kNLJoin,         ///< nested-loop (inner) join; right side buffered
  kHashJoin,       ///< hash (inner) join; build side buffered
  kNLOuterJoin,    ///< nested-loop left outer-join
  kHashOuterJoin,  ///< hash left outer-join; right side builds
  kUnnest,         ///< per-row collection expansion (drops empty)
  kOuterUnnest,    ///< per-row expansion with NULL padding
  kHashNest,       ///< blocking hash grouping (the Γ operator)
  kReduce,         ///< root fold, with quantifier short-circuit
  kRangeNestJoin,  ///< Γ(=⋈) over one inequality: sorted prefix fold
  kHashNestJoin,   ///< Γ(=⋈) over equi keys: per-key fold of the right side
};

/// One physical operator. Field use mirrors AlgOp, plus the physical
/// decisions (keys, build side, index attribute).
struct PhysOp {
  PhysKind kind;
  PhysPtr left, right;

  std::string extent;  // scans
  std::string var;     // scans/unnests: bound variable; nest: output variable
  ExprPtr pred;        // residual predicate (never null; True() if none)
  ExprPtr path;        // unnests
  ExprPtr head;        // nest/reduce
  MonoidKind monoid{};

  // kIndexScan
  std::string index_attr;
  ExprPtr index_key;

  // hash joins
  std::vector<ExprPtr> probe_keys;  // evaluated over the probe (streamed) side
  std::vector<ExprPtr> build_keys;  // evaluated over the build (buffered) side
  bool build_is_left = false;       ///< inner hash join built on the left input

  // kHashNest
  std::vector<std::pair<std::string, ExprPtr>> group_by;
  std::vector<std::string> null_vars;

  // padding variables for outer joins (the build/buffered side's variables)
  std::vector<std::string> pad_vars;

  // The nest joins: a Nest directly over an OuterJoin whose predicate is
  // the left-only conjuncts in `pred` plus, for kRangeNestJoin,
  // `probe_keys[0] range_op build_keys[0]` (left operand first), or, for
  // kHashNestJoin, `probe_keys[i] = build_keys[i]` for every i (right-only
  // conjuncts sit in a Filter on the right input). The nest fields (monoid,
  // head, var, group_by = identity over the left variables, null_vars =
  // pad_vars = the right variables) keep their HashNest meaning.
  BinOpKind range_op = BinOpKind::kLt;
};

/// Translates a logical plan into a physical one, making all algorithm
/// choices using `db`'s indexes/statistics and `options`. The logical plan
/// must be Reduce-rooted (as produced by the unnesting algorithm).
PhysPtr PlanPhysical(const AlgPtr& plan, const Database& db,
                     const PhysicalOptions& options = {});

/// Operator-kind mnemonic ("TableScan", "HashJoin", ...).
const char* PhysKindName(PhysKind kind);

/// One-line description of a single operator (no children, no newline) —
/// the per-node text shared by PrintPhysicalPlan and ExplainAnalyze.
std::string DescribePhysOp(const PhysOp& op);

/// Indented rendering of a physical plan.
std::string PrintPhysicalPlan(const PhysPtr& plan);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_PHYSICAL_PLAN_H_
