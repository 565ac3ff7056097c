// SQL-style three-valued-logic evaluation of relational algebra.
//
// This evaluator reproduces what a standard SQL engine computes on tables
// with (Codd) nulls — the behaviour the paper's introduction critiques:
//
//  * σ_p keeps a tuple only when p evaluates to TRUE (UNKNOWN is dropped);
//  * t ∈ R − S keeps t only when the 3VL row comparison t = s is FALSE for
//    *every* s ∈ S (the SQL `NOT IN` rule: one UNKNOWN poisons the test);
//  * t ∈ R ∩ S keeps t only when some s ∈ S compares TRUE to it (`IN`);
//  * R ÷ S keeps a head h when for every s̄ ∈ S some r ∈ R compares TRUE to
//    (h, s̄).
//
// Union, product, projection and Δ are null-agnostic and identical to
// naïve evaluation. Duplicate rows that are merely 3VL-possibly-equal (e.g.
// (1,⊥) vs (1,⊥')) are distinct tuples, as in SQL's set operations on
// distinct rows.
//
// The comparisons follow SQL's null semantics as Franconi–Tessaris,
// *Relational Algebra and Calculus with SQL Null Values* (PAPERS.md), treat
// them: a comparison atom with a null operand never holds, so a condition
// selects a row only when it is TRUE. −, ∩ and ÷ are defined through SQL's
// row comparison t = s — the `NOT IN` and `IN` row tests — not through
// EXCEPT / INTERSECT, which compare nulls as equal.
//
// Eval3VL serves these answers on the columnar engine (engine/vectorized.h)
// in its three-valued mode, which shares scan, π, ×, ∪, Δ, the σ/π-over-×
// join fusion, the UINT32_MAX row bound, the parallel chunking and the
// counters with naïve evaluation and changes four pieces, each equivalent
// to the rule above:
//
//  1. predicate masks are Kleene (FALSE 0, UNKNOWN 1, TRUE 2: ∧ is min, ∨
//     max, ¬ is 2 − v); a comparison meeting a null is UNKNOWN, IS NULL is
//     two-valued, and σ keeps the TRUE rows;
//  2. the fused equi-join never matches a null key code: t = s on a key
//     with a null is UNKNOWN, and the key conjunct must be TRUE;
//  3. t = s is TRUE only when both rows are null-free and equal, so R ∩ S
//     keeps the null-free rows of R that S holds (a merge walk), and R ÷ S
//     is every head of R when S is empty and otherwise the ordinary
//     division of R's null-free rows by S — ∅ when a row of S holds a
//     null, since no null-free row equals it;
//  4. t = s is FALSE exactly when some position is non-null in both and
//     differs, so R − S drops t exactly when some s agrees with t on every
//     position where both are non-null: the rows of S are grouped by null
//     pattern and t probes, per group, a hash index over the positions
//     that are non-null in both patterns (a group with no such position
//     drops t outright).
//
// Eval3VLReference is the fold in eval_3vl.cc: the textbook loops over
// tuples, built on TupleEquals3VL and Predicate::Eval3VL. It is the
// reference the columnar path is checked against (the differential oracle,
// eval_3vl_test's sweep, the fuzzer), no served path calls it, and it
// reports no counters.

#ifndef INCDB_ALGEBRA_EVAL_3VL_H_
#define INCDB_ALGEBRA_EVAL_3VL_H_

#include "algebra/ast.h"
#include "core/database.h"
#include "engine/stats.h"

namespace incdb {

/// 3VL row comparison: AND over positions of component equality, where a
/// component involving a null is UNKNOWN.
TruthValue TupleEquals3VL(const Tuple& a, const Tuple& b);

/// Evaluates `e` on `db` under SQL's three-valued logic on the columnar
/// engine. Errors on ill-typed expressions; a product or join past
/// UINT32_MAX rows is kResourceExhausted.
Result<Relation> Eval3VL(const RAExprPtr& e, const Database& db,
                         const EvalOptions& options);
Result<Relation> Eval3VL(const RAExprPtr& e, const Database& db);

/// The fold: Eval3VL's answers tuple by tuple, on one thread, with no row
/// bound and no counters. Errors on ill-typed expressions.
Result<Relation> Eval3VLReference(const RAExprPtr& e, const Database& db);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_EVAL_3VL_H_
