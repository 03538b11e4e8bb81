// Abstract syntax for the OQL subset of ODMG OQL the paper's examples use
// (select-from-where with distinct and group-by, struct construction, path
// expressions, universal/existential quantifiers, membership, aggregates).
//
// The OQL AST is deliberately separate from the calculus AST: the paper's
// pipeline is OQL --(translation [13])--> monoid calculus --> algebra, and
// src/oql/translate.cc implements the first arrow.

#ifndef LAMBDADB_OQL_AST_H_
#define LAMBDADB_OQL_AST_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/value.h"

namespace ldb::oql {

struct Node;
using NodePtr = std::shared_ptr<const Node>;

enum class NodeKind {
  kSelect,   ///< select [distinct] proj from ... [where ...] [group by ...]
  kIdent,    ///< variable / extent name
  kLiteral,  ///< constant
  kProj,     ///< e.attr
  kBin,      ///< binary operator (arith / comparison / and / or)
  kUn,       ///< not / unary minus
  kIn,       ///< e in collection
  kExists,   ///< exists v in D: pred
  kForAll,   ///< for all v in D: pred
  kAgg,      ///< count/sum/avg/max/min ( arg ), or exists( arg )
  kStruct,   ///< struct(A: e, ...)
  kParam,    ///< $1 / $name placeholder bound at execute time
};

enum class OBin { kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr, kAdd, kSub, kMul, kDiv, kMod };
enum class OUn { kNot, kNeg };
enum class OAgg { kCount, kSum, kAvg, kMax, kMin, kExists };

/// One `var in domain` binding of a from-clause.
struct FromItem {
  std::string var;
  NodePtr domain;
};

/// One projection item `expr [as name]`.
struct ProjItem {
  NodePtr expr;
  std::string as;  // empty if unnamed
};

struct Node {
  NodeKind kind;

  // kSelect
  bool distinct = false;
  std::vector<ProjItem> projection;  // >1 items build an implicit struct
  std::vector<FromItem> froms;
  NodePtr where;                     // may be null
  std::vector<NodePtr> group_by;     // paths
  /// order-by items: (key expression, descending?). Ordering produces a
  /// LIST result and is applied by the facade after execution — ordered
  /// collections are outside the unnesting algorithm (paper Section 8).
  std::vector<std::pair<NodePtr, bool>> order_by;

  // kIdent / kProj attribute / kStruct field names in `fields`
  std::string name;
  Value literal;                                    // kLiteral
  OBin bin{};                                       // kBin
  OUn un{};                                         // kUn
  OAgg agg{};                                       // kAgg
  NodePtr a, b;                                     // children
  std::string var;                                  // kExists/kForAll binder
  std::vector<std::pair<std::string, NodePtr>> fields;  // kStruct
  /// Height of this subtree (a leaf is 1), kept by the factories and by
  /// SetHeight; the parser refuses trees higher than kMaxQueryDepth.
  int height = 1;

  /// Recomputes `height` from every child field.
  void SetHeight() {
    int h = 0;
    auto over = [&h](const NodePtr& n) {
      if (n && n->height > h) h = n->height;
    };
    over(a);
    over(b);
    over(where);
    for (const ProjItem& p : projection) over(p.expr);
    for (const FromItem& f : froms) over(f.domain);
    for (const NodePtr& g : group_by) over(g);
    for (const auto& [key, desc] : order_by) over(key);
    for (const auto& [name, f] : fields) over(f);
    height = h + 1;
  }

  static std::shared_ptr<Node> New(NodeKind k) {
    auto n = std::make_shared<Node>();
    n->kind = k;
    return n;
  }
  static NodePtr Ident(std::string n) {
    auto node = New(NodeKind::kIdent);
    node->name = std::move(n);
    return node;
  }
  static NodePtr Param(std::string n) {
    auto node = New(NodeKind::kParam);
    node->name = std::move(n);
    return node;
  }
  static NodePtr Lit(Value v) {
    auto node = New(NodeKind::kLiteral);
    node->literal = std::move(v);
    return node;
  }
  static NodePtr Proj(NodePtr base, std::string attr) {
    auto node = New(NodeKind::kProj);
    node->a = std::move(base);
    node->name = std::move(attr);
    node->SetHeight();
    return node;
  }
  static NodePtr Bin(OBin op, NodePtr l, NodePtr r) {
    auto node = New(NodeKind::kBin);
    node->bin = op;
    node->a = std::move(l);
    node->b = std::move(r);
    node->SetHeight();
    return node;
  }
  static NodePtr Un(OUn op, NodePtr e) {
    auto node = New(NodeKind::kUn);
    node->un = op;
    node->a = std::move(e);
    node->SetHeight();
    return node;
  }
  static NodePtr In(NodePtr elem, NodePtr coll) {
    auto node = New(NodeKind::kIn);
    node->a = std::move(elem);
    node->b = std::move(coll);
    node->SetHeight();
    return node;
  }
  static NodePtr Quantifier(NodeKind kind, std::string var, NodePtr domain,
                            NodePtr pred) {
    auto node = New(kind);
    node->var = std::move(var);
    node->a = std::move(domain);
    node->b = std::move(pred);
    node->SetHeight();
    return node;
  }
  static NodePtr Agg(OAgg op, NodePtr arg) {
    auto node = New(NodeKind::kAgg);
    node->agg = op;
    node->a = std::move(arg);
    node->SetHeight();
    return node;
  }
  static NodePtr Struct(std::vector<std::pair<std::string, NodePtr>> fields) {
    auto node = New(NodeKind::kStruct);
    node->fields = std::move(fields);
    node->SetHeight();
    return node;
  }
};

}  // namespace ldb::oql

#endif  // LAMBDADB_OQL_AST_H_
