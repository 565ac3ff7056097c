// Text syntax for relational algebra expressions, round-tripping
// RAExpr::ToString():
//
//   expr    := term ( ('U' | '-' | '&') term )*        left-assoc, same prec
//   term    := factor ( ('x' | '/') factor )*          product / division
//   factor  := Name | DELTA | literal
//            | sel[ pred ](expr) | proj{ i, j, ... }(expr) | ( expr )
//   literal := { (v, v), ... }                         relation constant
//              with v in the core/io.h value syntax: an integer, a
//              'string' ('' for a quote), or a marked null _k
//   pred    := disjunctions/conjunctions of comparisons over #col and
//              constants, with NOT and IS NULL:
//                #0 = 5, #1 <> #2, #0 < 3 AND (#1 = 'x' OR #2 IS NULL)
//
// Predicate constants are integers and 'strings' ('' for a quote); they
// hold no nulls, so `sel[#0 = _1]` is a parse error. Keywords are
// case-insensitive; `U`, `x` must be standalone tokens. Parse errors name
// the line, column and token (util/scanner.h).

#ifndef INCDB_ALGEBRA_PARSER_H_
#define INCDB_ALGEBRA_PARSER_H_

#include <string>

#include "algebra/ast.h"
#include "util/status.h"

namespace incdb {

/// Parses an algebra expression.
Result<RAExprPtr> ParseRA(const std::string& text);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_PARSER_H_
