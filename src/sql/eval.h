// SQL evaluation over naïve databases, in three modes:
//
//  * kSql3VL — the SQL standard's three-valued logic: comparisons with NULL
//    are UNKNOWN; WHERE keeps TRUE rows only; x [NOT] IN (S) follows the
//    standard's quantified-comparison rules (one UNKNOWN poisons NOT IN);
//    EXISTS is two-valued. This reproduces the anomalies of the paper's
//    introduction on any SQL engine.
//  * kNaive — marked nulls are ordinary values; comparisons are syntactic.
//    This is the paper's naïve evaluation, the building block of correct
//    certain answers for positive queries.
//  * kSqlMaybe — WHERE keeps the UNKNOWN rows (Codd's MAYBE).
//
// Set semantics throughout (every SELECT is DISTINCT). Correlated subqueries
// are supported: inner queries see the outer row's columns.
//
// Every evaluation first plans the whole query once, before any row is
// read: each block's FROM entries, every column operand resolved to a
// (scope slot, column) pair, every subquery marked correlated when an
// operand below it resolves outside it. So an error that depends only on
// the query and the schema (unknown table or column, unnamed attributes,
// IN or UNION widths, bad aggregate blocks) fails the same way on any data.
//
// EvalSql, the served path, runs on dictionary codes. Every relation is
// read through its Columnar() form; in a DatabaseSnapshot they share one
// dictionary, elsewhere their dictionaries are merged once per evaluation.
// Literals resolve to dictionary ranks, so comparisons, [NOT] IN, EXISTS,
// IS [NOT] NULL and grouping are decided on 32-bit codes (code order is
// value order; outside naïve mode a null code makes a comparison UNKNOWN).
// Pushed WHERE conjuncts prune the FROM loop as soon as their columns are
// bound, and an equality with an earlier operand probes a per-evaluation
// code index. An uncorrelated subquery is evaluated once; x [NOT] IN (S) is
// one hash lookup in S's codes. A plain block's answer is a Relation with a
// columnar body over a dictionary compacted to the values it uses; an
// aggregate's answer holds new values and is a tuple body.
//
// EvalSqlReference is the reference: nested loops over Value tuples, the
// full WHERE at every row, and x [NOT] IN (S) as a fold of the 3VL OR over
// S. Both give the same answers and fail on the same queries with the same
// status; only the tests and the differential checks call the reference.

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

/// Evaluates a query on dictionary codes; output columns follow the SELECT
/// list (or the concatenation of FROM-table columns for SELECT *). SUM and
/// AVG whose running sum leaves int64 are InvalidArgument, and a block that
/// would emit more than UINT32_MAX rows is ResourceExhausted.
Result<Relation> EvalSql(const SqlQuery& q, const Database& db,
                         SqlEvalMode mode, const EvalOptions& options);
Result<Relation> EvalSql(const SqlQuery& q, const Database& db,
                         SqlEvalMode mode);

/// Convenience: parse-and-evaluate.
Result<Relation> EvalSql(const std::string& sql, const Database& db,
                         SqlEvalMode mode, const EvalOptions& options);
Result<Relation> EvalSql(const std::string& sql, const Database& db,
                         SqlEvalMode mode);

/// The tuple reference of EvalSql: the same answers and statuses, computed
/// by nested loops over Value tuples. `stats`, when non-null, receives the
/// kSqlBlock counters (no probes).
Result<Relation> EvalSqlReference(const std::string& sql, const Database& db,
                                  SqlEvalMode mode,
                                  EvalStats* stats = nullptr);

}  // namespace incdb

#endif  // INCDB_SQL_EVAL_H_
