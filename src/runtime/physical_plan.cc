#include "src/runtime/physical_plan.h"

#include <set>
#include <sstream>

#include "src/core/cost.h"
#include "src/core/pretty.h"
#include "src/core/typecheck.h"
#include "src/runtime/error.h"

namespace ldb {

namespace {

std::shared_ptr<PhysOp> New(PhysKind k) {
  auto op = std::make_shared<PhysOp>();
  op->kind = k;
  op->pred = Expr::True();
  return op;
}

// True if evaluating `e` can raise an EvalError on well-typed input. The
// nest joins evaluate their operands and head on every row, where the
// outer-join plan evaluates them only on the pairs it visits, so an
// expression that can fail would make the two plans disagree.
bool MayRaise(const ExprPtr& e) {
  if (!e) return false;
  switch (e->kind) {
    case ExprKind::kComp:
    case ExprKind::kLambda:
    case ExprKind::kMerge:
      return true;
    case ExprKind::kApply:
      if (e->a->kind != ExprKind::kLambda) return true;
      return MayRaise(e->a->a) || MayRaise(e->b);
    case ExprKind::kBinOp:
      if (e->bin_op == BinOpKind::kDiv || e->bin_op == BinOpKind::kMod) {
        return true;
      }
      break;
    default:
      break;
  }
  for (const auto& [name, f] : e->fields) {
    if (MayRaise(f)) return true;
  }
  return MayRaise(e->a) || MayRaise(e->b) || MayRaise(e->c);
}

// Monoids whose fold in any order (a sorted prefix, per-worker partials)
// equals the fold in stream order: Accumulator is exact and commutative for
// these (ExactSum for real sums).
bool OrderFreeMonoid(MonoidKind m) {
  switch (m) {
    case MonoidKind::kMax:
    case MonoidKind::kMin:
    case MonoidKind::kSome:
    case MonoidKind::kAll:
    case MonoidKind::kSum:
    case MonoidKind::kAvg:
      return true;
    default:
      return false;
  }
}

bool IsRangeOp(BinOpKind op) {
  return op == BinOpKind::kLt || op == BinOpKind::kLe ||
         op == BinOpKind::kGt || op == BinOpKind::kGe;
}

// `a op b` == `b Mirror(op) a`.
BinOpKind Mirror(BinOpKind op) {
  switch (op) {
    case BinOpKind::kLt: return BinOpKind::kGt;
    case BinOpKind::kLe: return BinOpKind::kGe;
    case BinOpKind::kGt: return BinOpKind::kLt;
    case BinOpKind::kGe: return BinOpKind::kLe;
    default: return op;
  }
}

bool Unique(const std::vector<std::string>& vars) {
  return std::set<std::string>(vars.begin(), vars.end()).size() == vars.size();
}

class Planner {
 public:
  Planner(const Database& db, const PhysicalOptions& options)
      : db_(db), options_(options), catalog_(Catalog::FromDatabase(db)) {}

  PhysPtr Root(const AlgPtr& plan) {
    LDB_INTERNAL_CHECK(plan && plan->kind == AlgKind::kReduce,
                       "physical planning expects a Reduce root");
    auto out = New(PhysKind::kReduce);
    out->left = Plan(plan->left);
    out->pred = plan->pred;
    out->head = plan->head;
    out->monoid = plan->monoid;
    return out;
  }

 private:
  const Database& db_;
  PhysicalOptions options_;
  Catalog catalog_;

  PhysPtr Plan(const AlgPtr& op) {
    LDB_INTERNAL_CHECK(op != nullptr, "null logical operator");
    switch (op->kind) {
      case AlgKind::kUnit:
        return New(PhysKind::kUnitRow);
      case AlgKind::kScan:
        return PlanScan(*op);
      case AlgKind::kSelect: {
        auto out = New(PhysKind::kFilter);
        out->left = Plan(op->left);
        out->pred = op->pred;
        return out;
      }
      case AlgKind::kJoin:
      case AlgKind::kOuterJoin:
        return PlanJoin(*op);
      case AlgKind::kUnnest:
      case AlgKind::kOuterUnnest: {
        auto out = New(op->kind == AlgKind::kUnnest ? PhysKind::kUnnest
                                                    : PhysKind::kOuterUnnest);
        out->left = Plan(op->left);
        out->path = op->path;
        out->var = op->var;
        out->pred = op->pred;
        return out;
      }
      case AlgKind::kNest: {
        if (PhysPtr fused = PlanNestJoin(*op)) return fused;
        auto out = New(PhysKind::kHashNest);
        out->left = Plan(op->left);
        out->monoid = op->monoid;
        out->head = op->head;
        out->var = op->var;
        out->group_by = op->group_by;
        out->null_vars = op->null_vars;
        out->pred = op->pred;
        return out;
      }
      case AlgKind::kReduce:
        throw InternalError("reduce below the plan root");
    }
    throw InternalError("unhandled logical operator");
  }

  PhysPtr PlanScan(const AlgOp& scan) {
    IndexMatch m;
    if (options_.use_indexes && MatchIndexScan(scan, db_, &m)) {
      auto out = New(PhysKind::kIndexScan);
      out->extent = scan.extent;
      out->var = scan.var;
      out->index_attr = m.attr;
      out->index_key = m.key;
      out->pred = m.residual;
      return out;
    }
    auto out = New(PhysKind::kTableScan);
    out->extent = scan.extent;
    out->var = scan.var;
    out->pred = scan.pred;
    return out;
  }

  PhysPtr PlanJoin(const AlgOp& join) {
    const bool outer = join.kind == AlgKind::kOuterJoin;
    PhysPtr left = Plan(join.left);
    PhysPtr right = Plan(join.right);
    std::vector<std::string> lvars = OutputVars(join.left);
    std::vector<std::string> rvars = OutputVars(join.right);
    JoinKeys keys = ExtractEquiKeys(join.pred, lvars, rvars);

    if (options_.use_hash_joins && keys.hashable()) {
      auto out = New(outer ? PhysKind::kHashOuterJoin : PhysKind::kHashJoin);
      out->left = left;
      out->right = right;
      out->pred = keys.residual;
      out->pad_vars = rvars;
      // Outer joins must probe with left rows; inner joins build on the side
      // the statistics say is smaller.
      bool build_left = false;
      if (!outer) {
        double lcard = RoughCard(join.left);
        double rcard = RoughCard(join.right);
        build_left = lcard < rcard;
      }
      out->build_is_left = build_left;
      if (build_left) {
        out->build_keys = keys.left_keys;
        out->probe_keys = keys.right_keys;
      } else {
        out->build_keys = keys.right_keys;
        out->probe_keys = keys.left_keys;
      }
      return out;
    }

    auto out = New(outer ? PhysKind::kNLOuterJoin : PhysKind::kNLJoin);
    out->left = left;
    out->right = right;
    out->pred = join.pred;
    out->pad_vars = rvars;
    return out;
  }

  // Nest(OuterJoin) whose groups are exactly the left rows becomes one
  // operator that folds the right side once (docs/EXECUTOR.md, "Nest
  // joins"): a kHashNestJoin when the join has hashable equi keys, a
  // kRangeNestJoin when it has exactly one inequality. Every other conjunct
  // must read only one side. Null when any condition fails, leaving
  // HashNest over the plain outer join.
  PhysPtr PlanNestJoin(const AlgOp& nest) {
    const AlgPtr& join = nest.left;
    if (join->kind != AlgKind::kOuterJoin || !OrderFreeMonoid(nest.monoid)) {
      return nullptr;
    }
    std::vector<std::string> lvars = OutputVars(join->left);
    std::vector<std::string> rvars = OutputVars(join->right);
    std::vector<std::string> all = lvars;
    all.insert(all.end(), rvars.begin(), rvars.end());
    if (!Unique(all)) return nullptr;
    // Groups are exactly the left rows, and padding is the right side.
    std::set<std::string> groups;
    for (const auto& [name, key] : nest.group_by) {
      if (key->kind != ExprKind::kVar || key->name != name) return nullptr;
      groups.insert(name);
    }
    if (groups != std::set<std::string>(lvars.begin(), lvars.end()) ||
        nest.group_by.size() != lvars.size()) {
      return nullptr;
    }
    if (std::set<std::string>(nest.null_vars.begin(), nest.null_vars.end()) !=
        std::set<std::string>(rvars.begin(), rvars.end())) {
      return nullptr;
    }
    // The fold evaluates the head, the nest predicate and every conjunct on
    // each row of its side, where the outer join evaluates them only on the
    // pairs it visits, so none of them may raise.
    if (!ReadsOnly(nest.head, rvars) || !ReadsOnly(nest.pred, rvars) ||
        MayRaise(nest.head) || MayRaise(nest.pred) || MayRaise(join->pred)) {
      return nullptr;
    }
    // The same keys HashOuterJoin would use, so matching is identical.
    JoinKeys keys;
    keys.residual = join->pred;
    if (options_.use_hash_joins) {
      keys = ExtractEquiKeys(join->pred, lvars, rvars);
    }
    ExprPtr lhs, rhs;
    BinOpKind range_op = BinOpKind::kLt;
    std::vector<ExprPtr> left_only, right_only;
    for (const ExprPtr& c : SplitConjuncts(keys.residual)) {
      if (ReadsOnly(c, lvars)) {
        left_only.push_back(c);
        continue;
      }
      if (ReadsOnly(c, rvars)) {
        right_only.push_back(c);
        continue;
      }
      if (keys.hashable() || lhs || c->kind != ExprKind::kBinOp ||
          !IsRangeOp(c->bin_op)) {
        return nullptr;
      }
      if (ReadsOnly(c->a, lvars) && ReadsOnly(c->b, rvars)) {
        lhs = c->a;
        rhs = c->b;
        range_op = c->bin_op;
      } else if (ReadsOnly(c->b, lvars) && ReadsOnly(c->a, rvars)) {
        lhs = c->b;
        rhs = c->a;
        range_op = Mirror(c->bin_op);
      } else {
        return nullptr;
      }
    }
    if ((!keys.hashable() && !lhs) || !DistinctRows(join->left)) {
      return nullptr;
    }

    auto out = New(keys.hashable() ? PhysKind::kHashNestJoin
                                   : PhysKind::kRangeNestJoin);
    out->left = Plan(join->left);
    PhysPtr right = Plan(join->right);
    // A right row failing a right-only conjunct or the nest predicate
    // contributes nothing, exactly as if it had never matched: filter it
    // out of the build.
    if (!nest.pred->IsTrueLiteral()) right_only.push_back(nest.pred);
    if (!right_only.empty()) {
      auto filter = New(PhysKind::kFilter);
      filter->left = right;
      filter->pred = MakeConjunction(right_only);
      right = filter;
    }
    out->right = right;
    if (keys.hashable()) {
      out->probe_keys = keys.left_keys;
      out->build_keys = keys.right_keys;
    } else {
      out->probe_keys = {lhs};
      out->build_keys = {rhs};
      out->range_op = range_op;
    }
    out->pred = MakeConjunction(left_only);
    out->monoid = nest.monoid;
    out->head = nest.head;
    out->var = nest.var;
    out->group_by = nest.group_by;
    out->null_vars = nest.null_vars;
    out->pad_vars = rvars;
    return out;
  }

  // True if `op` provably emits rows that are pairwise distinct on its
  // output variables: HashNest merges equal left rows into one group, a
  // nest join emits one row per left row.
  bool DistinctRows(const AlgPtr& op) {
    switch (op->kind) {
      case AlgKind::kUnit:
      case AlgKind::kScan:  // extents hold distinct object references
      case AlgKind::kNest:  // one row per distinct group key
        return true;
      case AlgKind::kSelect:
        return DistinctRows(op->left);
      case AlgKind::kJoin:
      case AlgKind::kOuterJoin:
        return DistinctRows(op->left) && DistinctRows(op->right);
      case AlgKind::kUnnest:
      case AlgKind::kOuterUnnest:
        return DistinctRows(op->left) && IsSetTyped(op->path, op->left);
      case AlgKind::kReduce:
        return false;
    }
    return false;
  }

  bool IsSetTyped(const ExprPtr& path, const AlgPtr& input) {
    try {
      TypePtr t =
          TypeCheck(path, db_.schema(), PlanOutputEnv(input, db_.schema()));
      return t->kind() == Type::Kind::kSet;
    } catch (const Error&) {
      return false;
    }
  }

  // A statistics peek for build-side choice: actual extent sizes where
  // visible, otherwise a neutral constant.
  double RoughCard(const AlgPtr& op) {
    return EstimateCardinality(op, catalog_);
  }
};

void Print(const PhysPtr& op, int indent, std::ostringstream& os) {
  if (!op) return;
  os << std::string(static_cast<size_t>(indent) * 2, ' ')
     << DescribePhysOp(*op) << '\n';
  Print(op->left, indent + 1, os);
  Print(op->right, indent + 1, os);
}

}  // namespace

const char* PhysKindName(PhysKind kind) {
  switch (kind) {
    case PhysKind::kUnitRow:       return "UnitRow";
    case PhysKind::kTableScan:     return "TableScan";
    case PhysKind::kIndexScan:     return "IndexScan";
    case PhysKind::kFilter:        return "Filter";
    case PhysKind::kNLJoin:        return "NLJoin";
    case PhysKind::kHashJoin:      return "HashJoin";
    case PhysKind::kNLOuterJoin:   return "NLOuterJoin";
    case PhysKind::kHashOuterJoin: return "HashOuterJoin";
    case PhysKind::kUnnest:        return "Unnest";
    case PhysKind::kOuterUnnest:   return "OuterUnnest";
    case PhysKind::kHashNest:      return "HashNest";
    case PhysKind::kReduce:        return "Reduce";
    case PhysKind::kRangeNestJoin: return "RangeNestJoin";
    case PhysKind::kHashNestJoin:  return "HashNestJoin";
  }
  return "?";
}

std::string DescribePhysOp(const PhysOp& op) {
  std::ostringstream os;
  auto pred_suffix = [&]() -> std::string {
    if (op.pred && !op.pred->IsTrueLiteral()) {
      return " if " + PrintExpr(op.pred);
    }
    return "";
  };
  switch (op.kind) {
    case PhysKind::kUnitRow:
      os << "UnitRow";
      break;
    case PhysKind::kTableScan:
      os << "TableScan[" << op.var << " <- " << op.extent << pred_suffix()
         << "]";
      break;
    case PhysKind::kIndexScan:
      os << "IndexScan[" << op.var << " <- " << op.extent << '.'
         << op.index_attr << " = " << PrintExpr(op.index_key) << pred_suffix()
         << "]";
      break;
    case PhysKind::kFilter:
      os << "Filter[" << PrintExpr(op.pred) << "]";
      break;
    case PhysKind::kNLJoin:
      os << "NLJoin[" << PrintExpr(op.pred) << "]";
      break;
    case PhysKind::kHashJoin:
    case PhysKind::kHashOuterJoin: {
      os << (op.kind == PhysKind::kHashJoin ? "HashJoin[" : "HashOuterJoin[");
      os << "build=" << (op.build_is_left ? "left" : "right") << " keys(";
      for (size_t i = 0; i < op.probe_keys.size(); ++i) {
        if (i) os << ", ";
        os << PrintExpr(op.probe_keys[i]) << '=' << PrintExpr(op.build_keys[i]);
      }
      os << ')' << pred_suffix() << "]";
      break;
    }
    case PhysKind::kNLOuterJoin:
      os << "NLOuterJoin[" << PrintExpr(op.pred) << "]";
      break;
    case PhysKind::kUnnest:
    case PhysKind::kOuterUnnest:
      os << (op.kind == PhysKind::kUnnest ? "Unnest[" : "OuterUnnest[")
         << op.var << " := " << PrintExpr(op.path) << pred_suffix() << "]";
      break;
    case PhysKind::kHashNest:
      os << "HashNest[" << MonoidName(op.monoid) << '/' << PrintExpr(op.head)
         << " -> " << op.var << pred_suffix() << "]";
      break;
    case PhysKind::kReduce:
      os << "Reduce[" << MonoidName(op.monoid) << '/' << PrintExpr(op.head)
         << pred_suffix() << "]";
      break;
    case PhysKind::kRangeNestJoin:
      os << "RangeNestJoin[" << MonoidName(op.monoid) << '/'
         << PrintExpr(op.head) << " -> " << op.var << " on "
         << PrintExpr(Expr::Bin(op.range_op, op.probe_keys[0],
                                op.build_keys[0]))
         << pred_suffix() << "]";
      break;
    case PhysKind::kHashNestJoin:
      os << "HashNestJoin[" << MonoidName(op.monoid) << '/'
         << PrintExpr(op.head) << " -> " << op.var << " keys(";
      for (size_t i = 0; i < op.probe_keys.size(); ++i) {
        if (i) os << ", ";
        os << PrintExpr(op.probe_keys[i]) << '=' << PrintExpr(op.build_keys[i]);
      }
      os << ')' << pred_suffix() << "]";
      break;
  }
  return os.str();
}

PhysPtr PlanPhysical(const AlgPtr& plan, const Database& db,
                     const PhysicalOptions& options) {
  Planner planner(db, options);
  return planner.Root(plan);
}

std::string PrintPhysicalPlan(const PhysPtr& plan) {
  std::ostringstream os;
  Print(plan, 0, os);
  return os.str();
}

}  // namespace ldb
