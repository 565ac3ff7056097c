// Certain answers: the classical intersection-based notion (eq. (1) of the
// paper) and the naïve-evaluation shortcut (eq. (4)), plus a possible-world
// enumeration used as ground truth.
//
//   certain(Q, D) = ⋂ { Q(D') | D' ∈ ⟦D⟧ }
//
// * `CertainAnswersNaive` computes Q(D)_cmpl — the naïve answer with
//   null-containing tuples dropped. By the paper's Section 6 this equals
//   certain(Q, D) when `NaiveEvaluationWorks(Q, semantics)`; the function
//   errors (kUnsupported) outside that fragment unless `force` is set.
// * `CertainAnswersEnum` enumerates CWA worlds over the finite domain of
//   core/possible_worlds.h and intersects the answers. Under OWA it requires
//   a monotone (positive) query, for which the intersection over minimal
//   worlds v(D) equals the intersection over all worlds.
// * `CertainObjectNaive` returns the *object* certain answer certainO(Q,D) =
//   Q(D) (nulls retained), per eq. (9).

#ifndef INCDB_ALGEBRA_CERTAIN_H_
#define INCDB_ALGEBRA_CERTAIN_H_

#include "algebra/ast.h"
#include "algebra/classify.h"
#include "core/possible_worlds.h"
#include "core/valuation.h"
#include "engine/stats.h"

namespace incdb {

/// Q(D)_cmpl, guarded by the fragment check (kUnsupported outside it unless
/// force=true — useful for measuring how wrong the shortcut is).
Result<Relation> CertainAnswersNaive(const RAExprPtr& e, const Database& db,
                                     WorldSemantics semantics,
                                     bool force = false,
                                     const EvalOptions& options = {});

/// certainO(Q, D) = Q(D): the naïve answer as an (incomplete) object.
Result<Relation> CertainObjectNaive(const RAExprPtr& e, const Database& db,
                                    const EvalOptions& options = {});

/// Ground-truth certain answers by world enumeration / monotonicity.
/// Exponential in the number of nulls (CWA); kUnsupported for non-positive
/// queries under OWA. EvalStats accumulate across all enumerated worlds.
/// When `options.num_threads` resolves above 1 the worlds are enumerated on
/// the thread pool (per-worker intersections merged at the end, per-worker
/// stats merged into `options.stats`); the answer is bit-identical to the
/// serial path at every thread count. A database with nulls whose world
/// count exceeds opts.max_worlds is refused up front with
/// ResourceExhausted, before any world is walked, so the status does not
/// depend on how soon an empty intersection would have stopped the walk.
Result<Relation> CertainAnswersEnum(const RAExprPtr& e, const Database& db,
                                    WorldSemantics semantics,
                                    const WorldEnumOptions& opts = {},
                                    const EvalOptions& options = {});

/// Possible answers: ⋃ { Q(D') | D' ∈ ⟦D⟧_cwa } by enumeration. Useful for
/// "maybe" tuples in examples and tests. Parallelizes like
/// CertainAnswersEnum (per-worker unions), with bit-identical answers, and
/// refuses a world count above opts.max_worlds up front as it does.
Result<Relation> PossibleAnswersEnum(const RAExprPtr& e, const Database& db,
                                     const WorldEnumOptions& opts = {},
                                     const EvalOptions& options = {});

}  // namespace incdb

#endif  // INCDB_ALGEBRA_CERTAIN_H_
