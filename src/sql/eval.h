// SQL evaluation over naïve databases, in two modes:
//
//  * kSql3VL — the SQL standard's three-valued logic: comparisons with NULL
//    are UNKNOWN; WHERE keeps TRUE rows only; x [NOT] IN (S) follows the
//    standard's quantified-comparison rules (one UNKNOWN poisons NOT IN);
//    EXISTS is two-valued. This reproduces the anomalies of the paper's
//    introduction on any SQL engine.
//  * kNaive — marked nulls are ordinary values; comparisons are syntactic.
//    This is the paper's naïve evaluation, the building block of correct
//    certain answers for positive queries.
//
// Set semantics throughout (every SELECT is DISTINCT). Correlated subqueries
// are supported: inner queries see the outer row's columns.
//
// Subqueries cost a lookup per outer row, not a rescan. An uncorrelated
// subquery is evaluated once per evaluation and shared by pointer.
// x [NOT] IN (S) is one binary search over S's canonical tuples (sorted,
// nulls first), plus a look at S's first tuple for a null. A block's FROM
// resolution and pushdown plan are built once per evaluation for each
// outer-scope depth it is reached at, so a correlated subquery re-enters a
// planned block for every outer row. With EvalOptions::use_hash_kernels =
// false the evaluator keeps its reference paths: the plain nested loop,
// and x [NOT] IN (S) as a fold of the 3VL OR over every tuple of S.

#ifndef INCDB_SQL_EVAL_H_
#define INCDB_SQL_EVAL_H_

#include "algebra/predicate.h"  // TruthValue
#include "core/database.h"
#include "engine/stats.h"
#include "sql/ast.h"

namespace incdb {

enum class SqlEvalMode {
  kSql3VL,    ///< WHERE keeps TRUE rows (the SQL standard)
  kNaive,     ///< marked nulls as values, two-valued
  kSqlMaybe,  ///< WHERE keeps UNKNOWN rows — Codd's MAYBE operator (1979):
              ///< together with kSql3VL it covers the possible answers
};

/// Evaluates a query; output columns follow the SELECT list (or the
/// concatenation of FROM-table columns for SELECT *). The evaluator pushes
/// statically-resolvable WHERE conjuncts into the FROM nested loop and
/// serves pushed equalities from per-column hash indexes, and decides
/// [NOT] IN by binary search (disable both with
/// EvalOptions::use_hash_kernels = false); surviving rows still evaluate the
/// full WHERE clause, so the answer is identical either way. SUM and AVG
/// whose sum leaves int64 are InvalidArgument.
Result<Relation> EvalSql(const SqlQuery& q, const Database& db,
                         SqlEvalMode mode, const EvalOptions& options);
Result<Relation> EvalSql(const SqlQuery& q, const Database& db,
                         SqlEvalMode mode);

/// Convenience: parse-and-evaluate.
Result<Relation> EvalSql(const std::string& sql, const Database& db,
                         SqlEvalMode mode, const EvalOptions& options);
Result<Relation> EvalSql(const std::string& sql, const Database& db,
                         SqlEvalMode mode);

}  // namespace incdb

#endif  // INCDB_SQL_EVAL_H_
