// Equi-join key extraction shared by every evaluator that fuses
// σ_{col=col}(l × r) into a hash join: the columnar engine
// (engine/vectorized.h), the delta evaluator, the c-table join kernel, the
// plan optimizer and the subplan cache's index pre-builder. Keeping one
// splitter means they all recognize exactly the same join shapes.

#ifndef INCDB_ENGINE_KERNELS_H_
#define INCDB_ENGINE_KERNELS_H_

#include <vector>

#include "algebra/predicate.h"

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

}  // namespace incdb

#endif  // INCDB_ENGINE_KERNELS_H_
