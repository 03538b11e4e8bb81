// A parser for the calculus pretty-printer's output (pretty.h, PrintExpr).
//
// The plan cache keys prepared plans on the pretty-printed normalized
// calculus (docs/SERVICE.md), which silently assumes the printed form is a
// faithful, unambiguous rendering of the term. ParseCalculus makes that
// assumption checkable: random_query_test prints every normalized term,
// re-parses it, re-typechecks it, and asserts the printed form is a fixpoint
// (print → parse → normalize → print is the identity), so two distinct
// queries can never collide on a cache key that under-prints the term.
//
// The grammar is exactly what PrintExpr emits — comprehension syntax
// `monoid{ head | v <- dom, pred }`, fully parenthesized binary operators,
// records `<a=e, b=e>`, lambdas `\v. body`, parameters `$name`, and Value
// literal syntax (value.h, Value::ToString) — not the OQL surface syntax
// (the OQL parser has no comprehension form). Two prints are knowingly
// non-injective and re-parse as the simpler form: a real that prints
// without fraction digits re-parses as an int (the two print identically
// forever after, so cache keys are unaffected), and a record of literals is
// indistinguishable from a tuple literal (same).

#ifndef LAMBDADB_VERIFY_CALC_PARSER_H_
#define LAMBDADB_VERIFY_CALC_PARSER_H_

#include <string>

#include "src/core/expr.h"

namespace ldb {

/// Parses a term printed by PrintExpr back into a calculus AST. Throws
/// ParseError (with a position) on input the printer could not have emitted,
/// and on a term or literal nested deeper than kMaxQueryDepth.
ExprPtr ParseCalculus(const std::string& text);

}  // namespace ldb

#endif  // LAMBDADB_VERIFY_CALC_PARSER_H_
