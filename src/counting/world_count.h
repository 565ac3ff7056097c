// Exact counting of satisfying valuations — the tractable half of the
// probabilistic answer layer (Arenas, Barceló, Monet: "Counting Problems
// over Incomplete Databases").
//
// The measure space is the uniform distribution over valuations of the
// database's nulls into the finite enumeration domain (core/possible_worlds
// WorldDomain) — |domain|^#nulls equally likely worlds. A tuple's
// probability is then #satisfying(global ∧ D_t) / #satisfying(global),
// with D_t the membership condition of ctables/ctable_algebra.h.
//
// Naïve counting enumerates |domain|^#nulls assignments, which is exactly
// the exponential this layer exists to avoid. CountSatisfying factors the
// problem first:
//
//  * nulls the condition never mentions are free — they multiply the count
//    by |domain|^#free and the fraction by 1;
//  * the top-level conjunction is split into connected components by
//    shared nulls (union-find): components touch disjoint null sets, so
//    their counts multiply;
//  * each component is charged |domain|^#component-nulls against `budget`
//    up front — the assignments it decides — and a component coupled
//    beyond the budget (e.g. a many-null OR that no factoring splits)
//    surfaces ResourceExhausted, the signal to fall back to Monte-Carlo
//    sampling (counting/sampler.h). Within the budget, the component is
//    counted by value classes (ctables/cond_arena.h ValueClassSolver): a
//    null branches over the domain codes the condition mentions plus one
//    representative of the rest, weighted by their number, so a null that
//    meets k codes costs k + 1 branches, not |domain|.
//
// Counts can overflow uint64 long before the fraction loses precision
// (24^20 ≈ 4·10^27), so the fraction is computed as a product of
// per-component fractions and the raw count saturates with an explicit
// flag rather than wrapping.

#ifndef INCDB_COUNTING_WORLD_COUNT_H_
#define INCDB_COUNTING_WORLD_COUNT_H_

#include <cstdint>
#include <vector>

#include "core/value.h"
#include "ctables/cond_arena.h"
#include "engine/stats.h"
#include "util/status.h"

namespace incdb {

/// Result of one exact count over the valuation space domain^nulls.
struct WorldCount {
  /// #satisfying / |domain|^#nulls, as a product of per-component
  /// fractions (exact up to FP rounding even when `count` saturates).
  double fraction = 0.0;
  /// #satisfying valuations, saturating at UINT64_MAX.
  uint64_t count = 0;
  /// True when `count` (or the world total) overflowed uint64 and
  /// saturated; `fraction` remains meaningful.
  bool saturated = false;
};

/// Number of valuations of the encoding's nulls (the measure space) over
/// its domain codes that satisfy arena node `c`, by independence factoring
/// and value classes as described above. Charges each component's
/// |domain|^#component-nulls assignments against `budget` before counting
/// it, and returns ResourceExhausted when the budget is exceeded — the
/// caller's cue to sample instead. `stats`, when non-null, receives the
/// charged assignments via CountWorldsCounted.
Result<WorldCount> CountSatisfying(uint32_t c, CondArena* arena,
                                   ValueClassSolver* solver,
                                   const WorldEncoding& enc, uint64_t budget,
                                   EvalStats* stats = nullptr);

/// CountSatisfying of a Condition tree: `nulls` is the full measure space
/// (every database null, sorted); the nulls of `c` must be a subset.
Result<WorldCount> CountSatisfyingValuations(const ConditionPtr& c,
                                             const std::vector<NullId>& nulls,
                                             const std::vector<Value>& domain,
                                             uint64_t budget,
                                             EvalStats* stats = nullptr);

}  // namespace incdb

#endif  // INCDB_COUNTING_WORLD_COUNT_H_
