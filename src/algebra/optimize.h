// Algebraic plan optimizer.
//
// Optimize() rewrites an RA expression into a cheaper equivalent plan:
//
//  * selection pushdown — σ moves through ∪ (both sides), ∩ and − (left
//    side), and × (conjuncts referencing one side only move into it);
//    stacked selections collapse into one conjunction;
//  * σ-over-× normalization — cross-boundary conjuncts settle directly
//    above the product they span, which is exactly the shape the hash-join
//    peephole in the evaluators fuses, so every evaluator (naïve, 3VL,
//    certain-enum) gets the equi-join fast path;
//  * projection pushdown — π∘π composes, π distributes through ∪, and a π
//    whose columns split block-wise over a bare × moves into both factors;
//    identity projections disappear;
//  * greedy join ordering — a σ/× spine of ≥ 3 leaves is re-ordered
//    left-deep from cheap cardinality estimates (smallest leaf first, then
//    connected-smallest), each conjunct re-attached at the lowest level
//    covering its columns, and a final π restores the original column
//    order.
//
// Every rewrite preserves semantics under both naïve and 3VL evaluation
// (answers are bit-identical) and preserves the paper's fragment
// classification — Classify(Optimize(e)) == Classify(e) is checked — so
// the naïve-evaluation certain-answer guarantees are untouched.

#ifndef INCDB_ALGEBRA_OPTIMIZE_H_
#define INCDB_ALGEBRA_OPTIMIZE_H_

#include <cstdint>

#include "algebra/ast.h"
#include "core/database.h"

namespace incdb {

/// Counts of rewrites applied, for explain output and tests.
struct OptimizerReport {
  uint64_t selections_pushed = 0;   ///< σ moved through ∪ / ∩ / − / ×
  uint64_t selections_fused = 0;    ///< σ∘σ collapsed
  uint64_t projections_pushed = 0;  ///< π composed / distributed / dropped
  uint64_t joins_reordered = 0;     ///< σ/× spines re-ordered

  uint64_t Total() const {
    return selections_pushed + selections_fused + projections_pushed +
           joins_reordered;
  }
};

/// Rewrites `e` into an equivalent, usually cheaper plan against `db`'s
/// schema and statistics. Pure: `e` is never mutated. Ill-typed expressions
/// come back unchanged (the evaluator reports the typing error). The result
/// evaluates to a bit-identical relation under every evaluator and has the
/// same Classify() fragment as `e`.
RAExprPtr Optimize(const RAExprPtr& e, const Database& db,
                   OptimizerReport* report = nullptr);

/// Structural fingerprint: equal trees hash equal; used for rewrite
/// fixpoint detection and as the service plan-cache key (collisions are
/// guarded by a full identity comparison there).
uint64_t RAFingerprint(const RAExprPtr& e);

/// Cheap cardinality estimate used by the join-ordering heuristic: base
/// relations report their true size, operators apply fixed selectivities.
double EstimateCardinality(const RAExprPtr& e, const Database& db);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_OPTIMIZE_H_
