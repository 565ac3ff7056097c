// Naïve (and complete-database) evaluation of relational algebra.
//
// Naïve evaluation treats marked nulls as ordinary values: ⊥_3 joins with
// ⊥_3, not with ⊥_4 or any constant. On a complete database this is simply
// standard set-semantics query evaluation, so a single evaluator serves both
// roles. The paper's central positive results (Section 6) say exactly when
// the naïve answer — with or without its null-free restriction — is the
// right certain answer.
//
// EvalNaive runs the batch-vectorized columnar engine (engine/vectorized.h),
// which fuses σ_{col=col}(l × r) — optionally under a π — into a hash
// equi-join and serves ∪/∩/− as merge walks. EvalNaiveReference beside it
// is the nested-loop reference: the textbook semantics the engine is
// property-tested against, called by the differential oracle, the tests
// and the benches, never by a served path. Pass EvalOptions{.stats = &s}
// to collect per-operator counters.

#ifndef INCDB_ALGEBRA_EVAL_H_
#define INCDB_ALGEBRA_EVAL_H_

#include "algebra/ast.h"
#include "core/database.h"
#include "engine/stats.h"

namespace incdb {

/// Evaluates `e` on `db` treating nulls as values. Errors on ill-typed
/// expressions (arity mismatches, unknown relations).
Result<Relation> EvalNaive(const RAExprPtr& e, const Database& db,
                           const EvalOptions& options);
Result<Relation> EvalNaive(const RAExprPtr& e, const Database& db);

/// The nested-loop reference of EvalNaive, on one thread and without the
/// UINT32_MAX row bound; otherwise the same answers and statuses. `stats`
/// receives per-operator counters (no batches or rows vectorized).
Result<Relation> EvalNaiveReference(const RAExprPtr& e, const Database& db,
                                    EvalStats* stats = nullptr);

/// Evaluates on a database required to be complete (checked).
Result<Relation> EvalComplete(const RAExprPtr& e, const Database& db,
                              const EvalOptions& options);
Result<Relation> EvalComplete(const RAExprPtr& e, const Database& db);

/// Division primitive: tuples t over the first arity(r)-arity(s) columns of
/// `r` such that (t, s̄) ∈ r for every s̄ ∈ s, computed by the nested-loop
/// reference. Exposed for tests. Returns
/// InvalidArgument (instead of aborting) when the arity constraint
/// 0 < arity(s) < arity(r) is violated — reachable from user-supplied RA
/// text through the shell.
Result<Relation> DivideRelations(const Relation& r, const Relation& s);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_EVAL_H_
