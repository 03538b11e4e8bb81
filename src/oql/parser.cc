#include "src/oql/parser.h"

#include "src/oql/lexer.h"
#include "src/runtime/error.h"
#include "src/runtime/serialize.h"

namespace ldb::oql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  NodePtr ParseQuery() {
    NodePtr q = Query();
    Expect(TokKind::kEnd, "end of input");
    return q;
  }

 private:
  std::vector<Token> toks_;
  size_t pos_ = 0;
  // Depth budget (kMaxQueryDepth). `depth_` counts the recursive rules on
  // the stack (Nest) — a parenthesis or subquery nests without building a
  // node — and Bounded() checks each node's height as it is built, which
  // catches left-deep chains the loops below build without recursing.
  int depth_ = 0;

  DepthGuard Nest() { return DepthGuard(&depth_, kMaxQueryDepth, "query"); }
  NodePtr Bounded(NodePtr n) const {
    if (n->height > kMaxQueryDepth) {
      Fail("nesting deeper than " + std::to_string(kMaxQueryDepth) +
           " levels");
    }
    return n;
  }

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  [[noreturn]] void Fail(const std::string& msg) const {
    throw ParseError(msg + " near offset " + std::to_string(Peek().offset) +
                     (Peek().kind == TokKind::kEnd ? " (end of input)"
                                                   : " ('" + Peek().text + "')"));
  }

  bool IsKeyword(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kIdent && t.lower == kw;
  }
  bool AcceptKeyword(const char* kw) {
    if (!IsKeyword(kw)) return false;
    Advance();
    return true;
  }
  void ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) Fail(std::string("expected '") + kw + "'");
  }
  bool IsSymbol(const char* s, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokKind::kSymbol && t.text == s;
  }
  bool AcceptSymbol(const char* s) {
    if (!IsSymbol(s)) return false;
    Advance();
    return true;
  }
  void ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) Fail(std::string("expected '") + s + "'");
  }
  void Expect(TokKind k, const char* what) {
    if (Peek().kind != k) Fail(std::string("expected ") + what);
  }
  std::string ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) Fail("expected identifier");
    return Advance().text;
  }

  static bool IsReserved(const std::string& lower) {
    static const char* kReserved[] = {
        "select", "distinct", "from", "where", "group",  "by",   "in",
        "as",     "exists",   "for",  "all",   "and",    "or",   "not",
        "struct", "true",     "false", "null",  "nil",   "count", "sum",
        "avg",    "max",      "min",   "mod",   "undefined",
        "order",  "asc",      "desc"};
    for (const char* kw : kReserved) {
      if (lower == kw) return true;
    }
    return false;
  }

  NodePtr Query() {
    if (IsKeyword("select")) return Select();
    return OrExpr();
  }

  NodePtr Select() {
    DepthGuard nest = Nest();
    ExpectKeyword("select");
    auto node = Node::New(NodeKind::kSelect);
    node->distinct = AcceptKeyword("distinct");
    // projection list (stops at FROM)
    node->projection.push_back(ProjItemRule());
    while (AcceptSymbol(",")) node->projection.push_back(ProjItemRule());
    ExpectKeyword("from");
    node->froms.push_back(FromItemRule());
    while (AcceptSymbol(",")) node->froms.push_back(FromItemRule());
    if (AcceptKeyword("where")) node->where = OrExpr();
    if (AcceptKeyword("group")) {
      ExpectKeyword("by");
      node->group_by.push_back(OrExpr());
      while (AcceptSymbol(",")) node->group_by.push_back(OrExpr());
    }
    if (AcceptKeyword("order")) {
      ExpectKeyword("by");
      do {
        NodePtr key = OrExpr();
        bool desc = false;
        if (AcceptKeyword("desc")) {
          desc = true;
        } else {
          AcceptKeyword("asc");
        }
        node->order_by.emplace_back(std::move(key), desc);
      } while (AcceptSymbol(","));
    }
    node->SetHeight();
    return Bounded(node);
  }

  ProjItem ProjItemRule() {
    ProjItem item;
    // `A : expr` named projection (OQL struct-less naming)
    if (Peek().kind == TokKind::kIdent && IsSymbol(":", 1) &&
        !IsReserved(Peek().lower)) {
      item.as = Advance().text;
      Advance();  // ':'
      item.expr = OrExpr();
      return item;
    }
    item.expr = OrExpr();
    if (AcceptKeyword("as")) item.as = ExpectIdent();
    return item;
  }

  FromItem FromItemRule() {
    FromItem item;
    // `ident in expr`
    if (Peek().kind == TokKind::kIdent && IsKeyword("in", 1) &&
        !IsReserved(Peek().lower)) {
      item.var = Advance().text;
      Advance();  // 'in'
      item.domain = IsKeyword("select") ? Select() : OrExpr();
      return item;
    }
    // `expr [as] ident`  ("Employees e" / "Employees as e")
    item.domain = OrExpr();
    AcceptKeyword("as");
    if (Peek().kind == TokKind::kIdent && !IsReserved(Peek().lower)) {
      item.var = Advance().text;
      return item;
    }
    Fail("expected range variable in from-clause");
  }

  NodePtr OrExpr() {
    DepthGuard nest = Nest();
    NodePtr l = AndExpr();
    while (AcceptKeyword("or")) l = Bounded(Node::Bin(OBin::kOr, l, AndExpr()));
    return l;
  }

  NodePtr AndExpr() {
    NodePtr l = NotExpr();
    while (AcceptKeyword("and")) {
      l = Bounded(Node::Bin(OBin::kAnd, l, NotExpr()));
    }
    return l;
  }

  NodePtr NotExpr() {
    if (AcceptKeyword("not")) {
      DepthGuard nest = Nest();
      return Bounded(Node::Un(OUn::kNot, NotExpr()));
    }
    // Quantifiers bind like NOT and their body extends maximally right.
    if (IsKeyword("exists") && Peek(1).kind == TokKind::kIdent &&
        IsKeyword("in", 2)) {
      Advance();
      std::string var = ExpectIdent();
      ExpectKeyword("in");
      NodePtr domain = IsKeyword("select") ? Select() : Comparison();
      ExpectSymbol(":");
      NodePtr body = OrExpr();
      return Bounded(Node::Quantifier(NodeKind::kExists, var, domain, body));
    }
    if (IsKeyword("for") && IsKeyword("all", 1)) {
      Advance();
      Advance();
      std::string var = ExpectIdent();
      ExpectKeyword("in");
      NodePtr domain = IsKeyword("select") ? Select() : Comparison();
      ExpectSymbol(":");
      NodePtr body = OrExpr();
      return Bounded(Node::Quantifier(NodeKind::kForAll, var, domain, body));
    }
    return Comparison();
  }

  NodePtr Comparison() {
    NodePtr l = Additive();
    if (Peek().kind == TokKind::kSymbol) {
      const std::string& s = Peek().text;
      OBin op;
      if (s == "=") {
        op = OBin::kEq;
      } else if (s == "!=") {
        op = OBin::kNe;
      } else if (s == "<") {
        op = OBin::kLt;
      } else if (s == "<=") {
        op = OBin::kLe;
      } else if (s == ">") {
        op = OBin::kGt;
      } else if (s == ">=") {
        op = OBin::kGe;
      } else {
        return MaybeIn(l);
      }
      Advance();
      return Bounded(Node::Bin(op, l, Additive()));
    }
    return MaybeIn(l);
  }

  NodePtr MaybeIn(NodePtr l) {
    if (AcceptKeyword("in")) return Bounded(Node::In(l, Additive()));
    return l;
  }

  NodePtr Additive() {
    NodePtr l = Multiplicative();
    while (true) {
      if (AcceptSymbol("+")) {
        l = Bounded(Node::Bin(OBin::kAdd, l, Multiplicative()));
      } else if (AcceptSymbol("-")) {
        l = Bounded(Node::Bin(OBin::kSub, l, Multiplicative()));
      } else {
        return l;
      }
    }
  }

  NodePtr Multiplicative() {
    NodePtr l = Unary();
    while (true) {
      if (AcceptSymbol("*")) {
        l = Bounded(Node::Bin(OBin::kMul, l, Unary()));
      } else if (AcceptSymbol("/")) {
        l = Bounded(Node::Bin(OBin::kDiv, l, Unary()));
      } else if (AcceptKeyword("mod")) {
        l = Bounded(Node::Bin(OBin::kMod, l, Unary()));
      } else {
        return l;
      }
    }
  }

  NodePtr Unary() {
    if (AcceptSymbol("-")) {
      DepthGuard nest = Nest();
      return Bounded(Node::Un(OUn::kNeg, Unary()));
    }
    return Postfix();
  }

  NodePtr Postfix() {
    NodePtr e = Primary();
    while (AcceptSymbol(".")) e = Bounded(Node::Proj(e, ExpectIdent()));
    return e;
  }

  static bool AggFromKeyword(const std::string& lower, OAgg* out) {
    if (lower == "count") *out = OAgg::kCount;
    else if (lower == "sum") *out = OAgg::kSum;
    else if (lower == "avg") *out = OAgg::kAvg;
    else if (lower == "max") *out = OAgg::kMax;
    else if (lower == "min") *out = OAgg::kMin;
    else if (lower == "exists") *out = OAgg::kExists;
    else return false;
    return true;
  }

  NodePtr Primary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kInt: {
        Advance();
        return Node::Lit(Value::Int(t.int_value));
      }
      case TokKind::kReal: {
        Advance();
        return Node::Lit(Value::Real(t.real_value));
      }
      case TokKind::kString: {
        Advance();
        return Node::Lit(Value::Str(t.text));
      }
      case TokKind::kParam: {
        Advance();
        return Node::Param(t.text);
      }
      case TokKind::kSymbol:
        if (t.text == "(") {
          Advance();
          NodePtr q = Query();
          ExpectSymbol(")");
          return q;
        }
        Fail("expected expression");
      case TokKind::kIdent: {
        if (t.lower == "true") {
          Advance();
          return Node::Lit(Value::Bool(true));
        }
        if (t.lower == "false") {
          Advance();
          return Node::Lit(Value::Bool(false));
        }
        if (t.lower == "null" || t.lower == "nil" || t.lower == "undefined") {
          Advance();
          return Node::Lit(Value::Null());
        }
        if (t.lower == "struct" && IsSymbol("(", 1)) {
          Advance();
          Advance();
          std::vector<std::pair<std::string, NodePtr>> fields;
          if (!IsSymbol(")")) {
            do {
              std::string name = ExpectIdent();
              ExpectSymbol(":");
              fields.emplace_back(name, OrExpr());
            } while (AcceptSymbol(","));
          }
          ExpectSymbol(")");
          return Bounded(Node::Struct(std::move(fields)));
        }
        OAgg agg;
        if (AggFromKeyword(t.lower, &agg) && IsSymbol("(", 1)) {
          Advance();
          Advance();
          NodePtr arg = Query();
          ExpectSymbol(")");
          return Bounded(Node::Agg(agg, arg));
        }
        Advance();
        return Node::Ident(t.text);
      }
      case TokKind::kEnd:
        Fail("unexpected end of input");
    }
    Fail("expected expression");
  }
};

}  // namespace

NodePtr Parse(const std::string& input) {
  Parser p(Lex(input));
  return p.ParseQuery();
}

}  // namespace ldb::oql
