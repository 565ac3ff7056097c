// Static classification of relational algebra queries into the paper's
// fragments (Sections 2 and 6.2):
//
//  * kPositive — σπ×∪∩ with positive selection predicates (equalities under
//    AND/OR). Expressively: unions of conjunctive queries. Naïve evaluation
//    computes certain answers under both OWA and CWA.
//  * kRAcwa — positive algebra extended with guarded division Q ÷ Q' where
//    Q' ∈ RA(Δ, π, ×, ∪) (built from base relations and Δ by π, ×, ∪ only).
//    Equals Pos∀G; cwa-naïve evaluation works.
//  * kFullRA — anything else (uses −, unguarded ÷, negated/ordered
//    predicates, IS NULL). No naïve-evaluation guarantee; certain answers
//    are coNP-hard (CWA) / undecidable (OWA).

#ifndef INCDB_ALGEBRA_CLASSIFY_H_
#define INCDB_ALGEBRA_CLASSIFY_H_

#include <optional>

#include "algebra/ast.h"
#include "core/valuation.h"

namespace incdb {

enum class QueryClass {
  kPositive = 0,
  kRAcwa = 1,
  kFullRA = 2,
};

const char* QueryClassName(QueryClass c);

/// True if `e` is a positive-algebra query (UCQ-expressible).
bool IsPositive(const RAExprPtr& e);

/// True if `e` is in RA(Δ, π, ×, ∪): base relations and Δ closed under
/// projection, product, and union (the admissible divisors of RA_cwa).
bool IsDeltaPiTimesUnion(const RAExprPtr& e);

/// True if `e` is in RA_cwa.
bool IsRAcwa(const RAExprPtr& e);

/// The most specific class containing `e`.
QueryClass Classify(const RAExprPtr& e);

/// True if a relation literal of `e` holds a null. Such a plan is not
/// generic: the literal's null is a value in every world, not an unknown.
bool LiteralHoldsNull(const RAExprPtr& e);

/// The first null among the constants of `e`'s selection predicates, if
/// any. Such a plan is not generic either: valuations never apply to a
/// predicate's constants, so `#0 = _0` holds on the null _0 of D under
/// naïve evaluation and on no row of any world.
std::optional<Value> SelectionNull(const RAExprPtr& e);

/// Naïve-evaluation guarantee (equation (4) of the paper): does naïve
/// evaluation compute certain answers for `e` under `semantics`? Never for
/// a plan whose relation literal holds a null or whose selection compares
/// with one: eq. (4) is about generic queries, whose constants are
/// constants, and Q(D)_cmpl drops the rows that carry a literal's null.
bool NaiveEvaluationWorks(const RAExprPtr& e, WorldSemantics semantics);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_CLASSIFY_H_
