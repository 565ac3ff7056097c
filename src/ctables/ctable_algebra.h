// The Imieliński–Lipski algebra on conditional tables: a strong
// representation system for full relational algebra under CWA.
//
// For every operator the result's worlds are exactly the operator applied to
// the input's worlds: ⟦Q(T)⟧_cwa = Q(⟦T⟧_cwa). The price is condition
// growth — difference multiplies each left row's condition by the negation
// of every right row (bench E5 measures this).
//
// Supported selection predicates: equalities/inequalities under AND/OR/NOT
// (order comparisons are admitted only when both operands resolve to
// constants — a condition on nulls with `<` is outside the equality-
// condition language of c-tables), and IS NULL, which no cell of a world
// satisfies unless a relation literal put a null there.
//
// The operators run on dictionary codes with conditions in one arena per
// query (ctables/code_ctable.h). This header holds the entry points: on
// stored c-tables (EvalOnCTables) and on a database's worlds (certain and
// possible answers).

#ifndef INCDB_CTABLES_CTABLE_ALGEBRA_H_
#define INCDB_CTABLES_CTABLE_ALGEBRA_H_

#include "algebra/ast.h"
#include "core/possible_worlds.h"
#include "ctables/ctable.h"
#include "engine/stats.h"

namespace incdb {

/// Evaluates a relational algebra expression over a c-table database on
/// codes (CTableQuery::Make(e, db), Eval, Export). Division is expanded to
/// its σπ×− form first; σ over × runs as the fused equi-join where it can.
/// Δ ranges over the active domain (constants and nulls) of the
/// c-database. Fails Unsupported on a plan whose relation literal holds a
/// null: on codes that null is a value, and the exported table would print
/// it as a variable.
Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db);

// ---------------------------------------------------------------------------
// Certain and possible answers on the c-table backend (ctables/code_ctable.h
// does the work).
//
// Because c-tables are a strong representation system, the worlds of the
// result table T are exactly { Q(D') : D' ∈ ⟦D⟧_cwa }, so:
//
//   t is certain  ⟺  global(T) ∧ ¬D_t is unsatisfiable over the enumeration
//                    domain, where D_t = ⋁_rows (cond_r ∧ "tuple_r = t");
//   t is possible ⟺  some row's condition ∧ "tuple_r = t" is satisfiable.
//
// Satisfiability is decided over the same finite domain world enumeration
// uses (core/possible_worlds.h), which is what makes the answers
// bit-identical to CertainAnswersEnum / PossibleAnswersEnum — without ever
// materializing a world.
// ---------------------------------------------------------------------------

/// Certain answers computed representation-natively: encode `db` and the
/// (optimized, when options.optimize) plan on the query's codes, run the
/// plan once on code c-tables, extract. Bit-identical to CertainAnswersEnum
/// with the same `opts` — including the OWA/WCWA positive-query guard — but
/// never enumerates worlds: databases whose |domain|^#nulls explodes past
/// opts.max_worlds stay answerable. opts.max_worlds is reused as the
/// per-check satisfiability branch budget; options.stats receives the
/// c-table operator counters plus cond_simplified / unsat_pruned.
Result<Relation> CertainAnswersCTable(const RAExprPtr& e, const Database& db,
                                      WorldSemantics semantics,
                                      const WorldEnumOptions& opts = {},
                                      const EvalOptions& options = {});

/// Possible answers, representation-natively. Bit-identical to
/// PossibleAnswersEnum with the same `opts`.
Result<Relation> PossibleAnswersCTable(const RAExprPtr& e, const Database& db,
                                       const WorldEnumOptions& opts = {},
                                       const EvalOptions& options = {});

}  // namespace incdb

#endif  // INCDB_CTABLES_CTABLE_ALGEBRA_H_
