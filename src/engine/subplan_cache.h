// World-invariant subplan caching for the enumeration drivers.
//
// Certain/possible-answer enumeration evaluates the same plan against every
// CWA world v(D). A valuation only changes tuples that contain nulls, so any
// subtree whose leaves are null-free — complete base relations and literal
// relations, but never Δ, whose active domain varies per world — evaluates
// to the same relation in every world. PrepareWorldInvariantPlan() finds the
// maximal such subtrees, evaluates each once against D, and splices the
// results back in as literal ConstRel nodes. Relation's copy-on-write
// storage means every world and every parallel worker then shares one
// canonical tuple vector, one hash index, and (for equi-join shapes
// detected in the prepared plan) one pre-built column index — built on the
// driver thread so workers only ever read.
//
// Identical subtrees are detected by structural fingerprint stamped with
// each scanned relation's (name, version, size, completeness), verified
// structurally against hash collisions, and evaluated once. Drivers report
// one cache hit per spliced subplan per world evaluated through
// EvalStats::CountCacheHits, and one miss per unique evaluation.

#ifndef INCDB_ENGINE_SUBPLAN_CACHE_H_
#define INCDB_ENGINE_SUBPLAN_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "algebra/ast.h"
#include "core/database.h"
#include "engine/stats.h"
#include "util/status.h"

namespace incdb {

/// Result of PrepareWorldInvariantPlan.
struct PreparedPlan {
  /// The plan with every maximal world-invariant subtree replaced by a
  /// ConstRel holding its (pre-indexed) one-time evaluation result.
  RAExprPtr plan;
  /// Spliced subplan results in `plan`; each one saves a subtree evaluation
  /// in every world, so drivers count this many cache hits per world.
  size_t cached_subplans = 0;
  /// Distinct invariant subtrees actually evaluated (cache misses).
  uint64_t unique_evals = 0;
  /// Structurally identical subtrees that reused an already-evaluated
  /// result during preparation.
  uint64_t prepare_hits = 0;
  /// True when the whole plan is world-invariant (the per-world loop then
  /// evaluates a single literal; drivers still enumerate so the world
  /// budget is enforced identically).
  bool whole_plan_invariant = false;
};

/// Rewrites `e` for repeated evaluation over the worlds of `db` as described
/// above. The rewrite never changes answers: each spliced literal is exactly
/// the subtree's value in every world of `db`. Ill-typed plans come back
/// unchanged (the evaluator reports the error). The one-time evaluations run
/// with `options` (their operator counters land in options.stats once, not
/// per world).
Result<PreparedPlan> PrepareWorldInvariantPlan(const RAExprPtr& e,
                                               const Database& db,
                                               const EvalOptions& options);

/// Forces the lazy state (canonical tuples, hash index, completeness memo)
/// of every ConstRel literal in `e` on the calling thread. Parallel drivers
/// call this before fanning out so workers only read literals — including
/// user-written ones that never went through the subplan cache.
void ForcePlanLiterals(const RAExprPtr& e);

}  // namespace incdb

#endif  // INCDB_ENGINE_SUBPLAN_CACHE_H_
