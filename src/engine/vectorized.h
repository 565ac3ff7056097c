// Batch-vectorized plan execution over dictionary-encoded columns.
//
// EvalVectorized is the naïve-RA engine behind EvalNaive: it evaluates
// (optimized) RA plans with naïve semantics — marked nulls are ordinary
// values, all comparisons use the total Value order — batch-at-a-time over
// the ColumnarRelation form (core/columnar.h):
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
// Cross-dictionary operators first merge the two sorted dictionaries and
// remap codes through the order-preserving translations of MergeDicts, so
// code comparisons stay valid across inputs. Intermediates never decode to
// Values; the final result is materialized to a canonical Relation, which
// is why the path is bit-identical to the nested-loop reference on every
// plan — the differential oracle and the vectorized property test
// machine-check that. EvalNaive routes here whenever
// EvalOptions::use_hash_kernels is set; with it off, the nested-loop
// reference in algebra/eval.cc runs instead and serves as the oracle.
//
// Large probe/filter loops chunk through util/thread_pool.h's ParallelFor
// above EvalOptions::parallel_row_threshold with per-chunk outputs merged
// in chunk order, so results are bit-identical at every thread count (and
// nested calls inside the enumeration drivers' workers run inline).

#ifndef INCDB_ENGINE_VECTORIZED_H_
#define INCDB_ENGINE_VECTORIZED_H_

#include "algebra/ast.h"
#include "core/database.h"
#include "engine/stats.h"
#include "util/status.h"

namespace incdb {

/// Evaluates `e` against `db` batch-at-a-time over columnar storage.
/// Answers are bit-identical to the nested-loop reference; EvalOptions
/// stats receive the usual per-operator counters plus batches_processed /
/// rows_vectorized. Called by EvalNaive when options.use_hash_kernels.
Result<Relation> EvalVectorized(const RAExprPtr& e, const Database& db,
                                const EvalOptions& options);

}  // namespace incdb

#endif  // INCDB_ENGINE_VECTORIZED_H_
