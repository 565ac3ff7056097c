// Pieces shared by the evaluators that run on dictionary codes or fuse
// σ_{col=col}(l × r) into a hash join: the columnar engine
// (engine/vectorized.h), the delta evaluator (engine/delta_eval.h), the
// c-table join kernel and the plan optimizer. Keeping one equi-join splitter
// means they all recognize exactly the same join shapes, and keeping one
// rank resolution means they all compare a code with a constant alike.

#ifndef INCDB_ENGINE_KERNELS_H_
#define INCDB_ENGINE_KERNELS_H_

#include <compare>
#include <cstdint>
#include <vector>

#include "algebra/predicate.h"
#include "core/columnar.h"

namespace incdb {

/// One equi-join column pair: left column of the (virtual) concatenated
/// tuple and right column *relative to the right relation*.
struct JoinKey {
  size_t left_col;
  size_t right_col;
};

/// Partition of a selection predicate over a product whose left input has
/// arity `left_arity`: cross-boundary column equalities become join keys,
/// everything else is re-ANDed into the residual (null when empty).
struct JoinSplit {
  std::vector<JoinKey> keys;
  PredicatePtr residual;
};

/// Splits the top-level AND-conjuncts of `pred` for the equi-join kernels.
JoinSplit SplitForEquiJoin(const PredicatePtr& pred, size_t left_arity);

/// Whether `op` holds between two values that compare as `cmp`.
bool CmpBool(CmpOp op, std::strong_ordering cmp);

/// The operator with its operands swapped (a < b ⇔ b > a).
CmpOp MirrorOp(CmpOp op);

/// `code OP c` for every code of one sorted dictionary, resolved to ranks
/// once: the codes in [lo, hi) satisfy it, or, when `negate` (≠), the codes
/// outside. Valid because the dictionary is sorted by the total Value order,
/// the order the nested-loop references compare with; `c` need not be in
/// the dictionary.
struct CodeRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool negate = false;

  bool Holds(uint32_t code) const { return (code - lo < hi - lo) != negate; }
};

CodeRange ResolveCmp(CmpOp op, const ValueDict& dict, const Value& c);

}  // namespace incdb

#endif  // INCDB_ENGINE_KERNELS_H_
