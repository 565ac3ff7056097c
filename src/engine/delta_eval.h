// Differential cross-world evaluation (the delta-eval layer).
//
// The enumeration drivers visit |domain|^#nulls worlds; with the Gray-code
// drivers (core/possible_worlds.h) consecutive worlds differ in exactly one
// null's binding. DeltaEvaluator exploits that: every plan node materializes
// its output once — as a map from output tuple to its *derivation count*
// (how many ways the node's inputs produce it), so the output set is exactly
// the keys — and each scan keeps a provenance index from NullId to the base
// rows containing that null. When a null flips, only the affected base rows
// are retracted/re-inserted, and the resulting set-level transitions (tuples
// whose count crosses zero) are propagated up through σ / π / × / ∪ / ∩ /
// − / ÷ by per-operator delta rules that probe the same hash structures the
// full kernels use:
//
//   scan   retract v_old(t) / insert v_new(t) for the provenance rows only
//   σ, π   filter / project the child's transitions
//   ×      compiled as a hash join (σ-over-× and π-over-σ-over-× fuse):
//          Δ(L ⋈ R) = ΔL ⋈ R_old + L_new ⋈ ΔR, probed against key-indexed
//          mirrors of the child sets
//   ∪      counts are additive ([t ∈ L] + [t ∈ R])
//   ∩, −   membership recomputation for the affected tuples only (the old
//          membership is derived by un-flipping the child transitions)
//   ÷      per-head derivation and divisor-match counters; a changing
//          divisor falls back to recomputing the node
//
// When a step's delta would cost more than recomputing a node from its
// children (or a rule does not apply, e.g. ÷ with a changed divisor), the
// node is recomputed in full and the old/new outputs are diffed — counted in
// `node_fallbacks()`. Plans containing Δ (the diagonal over the world's
// active domain, which a single-null step cannot patch) are rejected at
// Build time; the drivers then evaluate those plans per world as before.
//
// Null-free subtrees — complete scans and ConstRel literals (valuations
// never apply to literals) — are evaluated once at Initialize and never
// step, so the differential work is confined to the world-varying
// remainder of the plan.
//
// Thread-compatibility: one DeltaEvaluator is single-threaded state. The
// parallel drivers build one per worker; Build/Initialize only read the
// (pre-forced) database relations and plan literals.

#ifndef INCDB_ENGINE_DELTA_EVAL_H_
#define INCDB_ENGINE_DELTA_EVAL_H_

#include <memory>
#include <vector>

#include "algebra/ast.h"
#include "core/database.h"
#include "core/possible_worlds.h"
#include "core/valuation.h"
#include "engine/stats.h"

namespace incdb {

/// Differential evaluator for one plan over one incomplete database across a
/// Gray chain of worlds. Usage: Build once, Initialize on the chain's first
/// valuation, ApplyDelta per single-null step; Output()/added()/removed()
/// expose the root relation and its per-step transitions.
class DeltaEvaluator {
 public:
  DeltaEvaluator();
  ~DeltaEvaluator();
  DeltaEvaluator(const DeltaEvaluator&) = delete;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = delete;

  /// Compiles `plan` against `db` into a tree of differential operator
  /// states (no evaluation yet). Returns Unsupported for plans containing Δ.
  /// `db` and the plan's literals must outlive the evaluator.
  /// `options.stats`, when set, receives per-operator counters for the
  /// initialization and for every applied delta.
  Status Build(const RAExprPtr& plan, const Database& db,
               const EvalOptions& options);

  /// Fully evaluates the plan in the world `v`(D) — the first world of a
  /// Gray chain — materializing every node's counted output, the scans'
  /// null → supporting-rows provenance indexes, and the join key mirrors.
  /// May be called again to restart on a different chain.
  Status Initialize(const Valuation& v);

  /// Applies one single-null step: `delta` must be the Gray driver's
  /// transition from the previously evaluated world. Root-level set
  /// transitions are exposed via added()/removed() until the next call.
  Status ApplyDelta(const ValuationDelta& delta);

  /// The root output of the last Initialize/ApplyDelta as a canonical
  /// Relation (materialized on call — use added()/removed() on the hot
  /// path).
  Relation Output() const;

  /// Root-level transitions of the last ApplyDelta (empty after
  /// Initialize).
  const std::vector<Tuple>& added() const { return added_; }
  const std::vector<Tuple>& removed() const { return removed_; }

  /// Worlds answered by applying a single-null delta (i.e. ApplyDelta
  /// calls that completed differentially).
  uint64_t deltas_applied() const { return deltas_applied_; }
  /// Node-level full recomputations forced where the delta rule did not
  /// apply or would have cost more than re-deriving the node.
  uint64_t node_fallbacks() const { return node_fallbacks_; }

 private:
  struct Node;

  Result<Node*> Compile(const RAExprPtr& e);
  Status Init(Node& n);
  Status Step(Node& n, const ValuationDelta& delta);
  Status Recompute(Node& n);

  const Database* db_ = nullptr;
  EvalOptions options_;
  Valuation cur_;
  bool initialized_ = false;
  // Nodes in postorder (children before parents); the root is the last.
  std::vector<std::unique_ptr<Node>> postorder_;
  std::vector<Tuple> added_;
  std::vector<Tuple> removed_;
  uint64_t deltas_applied_ = 0;
  uint64_t node_fallbacks_ = 0;
};

}  // namespace incdb

#endif  // INCDB_ENGINE_DELTA_EVAL_H_
