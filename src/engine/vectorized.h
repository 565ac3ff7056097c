// Batch-vectorized plan execution over dictionary-encoded columns.
//
// EvalVectorized is the RA engine behind EvalNaive and Eval3VL: it
// evaluates (optimized) RA plans batch-at-a-time over the ColumnarRelation
// form (core/columnar.h), under one of two null logics the caller picks.
// Under naïve logic marked nulls are ordinary values and all comparisons use
// the total Value order:
//
//   * selection runs as predicate-over-column loops producing selection
//     vectors (per-batch byte masks folded into kept-row lists); constants
//     are rank-resolved against the dictionary once, so the inner loops
//     compare 32-bit codes only;
//   * projection is column slicing plus a code-level sort/unique compact;
//   * σ-over-× with cross-boundary equalities fuses into a batched hash
//     equi-join: build/probe over key-code columns, candidate verification
//     and residual predicates evaluated on codes, the π fused into the
//     emit;
//   * union / intersection / difference run as merge walks over sorted
//     code runs (rows are kept in canonical lexicographic order end to
//     end, so every binary operator sees two sorted inputs);
//   * division groups the sorted dividend into head runs and counts each
//     run's tails found in the divisor (binary search over code rows).
//
// Under SQL's three-valued logic (NullLogic::kThreeValued) scan, π, ×, ∪,
// Δ, the join fusion, the row bound, the chunking and the counters stay as
// they are, and four pieces change (algebra/eval_3vl.h has the semantics):
//
//   * masks are Kleene: FALSE is 0, UNKNOWN 1 and TRUE 2, so ∧ is min, ∨ is
//     max and ¬ is 2 − v; a comparison meeting a null code or a null
//     constant is UNKNOWN, IS NULL stays two-valued, and σ keeps TRUE rows;
//   * the fused equi-join never matches a left row with a null key code
//     (such a row does not probe);
//   * ∩ merges the null-free rows of the left input with the right one, and
//     ÷ divides the null-free dividend rows by a non-empty divisor (none
//     matches a divisor row holding a null); by an empty divisor every head
//     divides, null heads included;
//   * − groups the right rows by null pattern and drops a left row when a
//     group holds a row that agrees with it wherever both are non-null:
//     one RowHashIndex per (left pattern, right group) pair over the
//     positions both patterns fill, built when a row of that left pattern
//     first needs it; a pair with no such position drops the row outright.
//
// The relations of one DatabaseSnapshot share a dictionary, so operators
// over them compare codes directly. Cross-dictionary operators (literals,
// Δ, relations outside a snapshot) first merge the two sorted dictionaries
// and remap codes through the order-preserving translations of MergeDicts,
// so code comparisons stay valid across inputs. Nulls sort first in every
// dictionary, so a code is a null exactly when it is below `null_end`.
// Intermediates never decode to Values; the answer is a Relation whose body
// is its canonical code columns over a dictionary compacted to the values
// it uses, which is why the path is bit-identical to the nested-loop
// references (algebra/eval.cc, algebra/eval_3vl.cc) on every plan — the
// differential oracle and the property tests machine-check that. Product
// and join intermediates past UINT32_MAX rows (the kernels' row-id range)
// fail with kResourceExhausted under either logic.
//
// Large probe/filter loops chunk through util/thread_pool.h's ParallelFor
// above EvalOptions::parallel_row_threshold with per-chunk outputs merged
// in chunk order, so results and counters are identical at every thread
// count (and nested calls inside the enumeration drivers' workers run
// inline).

#ifndef INCDB_ENGINE_VECTORIZED_H_
#define INCDB_ENGINE_VECTORIZED_H_

#include "algebra/ast.h"
#include "core/database.h"
#include "engine/stats.h"
#include "util/status.h"

namespace incdb {

/// How the engine treats nulls: as values (naïve evaluation, EvalNaive) or
/// under SQL's three-valued logic (Eval3VL).
enum class NullLogic { kNaive, kThreeValued };

/// Evaluates `e` against `db` batch-at-a-time over columnar storage under
/// `logic`. The answer holds a columnar body (tuples are built on demand)
/// and is bit-identical to the nested-loop reference of that logic;
/// EvalOptions stats receive the usual per-operator counters plus
/// batches_processed / rows_vectorized. EvalNaive and Eval3VL call it.
Result<Relation> EvalVectorized(const RAExprPtr& e, const Database& db,
                                const EvalOptions& options, NullLogic logic);

}  // namespace incdb

#endif  // INCDB_ENGINE_VECTORIZED_H_
