// Differential cross-world evaluation (the delta-eval layer).
//
// The enumeration drivers visit |domain|^#nulls worlds along the Gray-code
// chains of core/possible_worlds.h, where consecutive worlds differ in
// exactly one null's binding. DeltaEvaluator exploits that, and it is the
// only way the enumeration backend evaluates a plan: every plan node
// materializes its output once — as a set of rows, each with its
// *derivation count* (how many ways the node's inputs produce it) — and each
// scan keeps a provenance index from null to the base rows containing that
// null. When a null flips, only the affected base rows are retracted and
// re-inserted, and the resulting set-level transitions (rows whose count
// crosses zero) are propagated up through σ / π / × / ∪ / ∩ / − / ÷ / Δ by
// per-operator delta rules:
//
//   scan   retract v_old(t) / insert v_new(t) for the provenance rows only
//   σ, π   filter / project the child's transitions
//   ×      compiled as a hash join (σ-over-× and π-over-σ-over-× fuse):
//          Δ(L ⋈ R) = ΔL ⋈ R_old + L_new ⋈ ΔR, probed against key-indexed
//          mirrors of the child sets
//   ∪      counts are additive ([t ∈ L] + [t ∈ R])
//   ∩, −   membership recomputation for the affected rows only (the old
//          membership is derived by un-flipping the child transitions)
//   ÷      per-head derivation and divisor-match counters; a changing
//          divisor falls back to recomputing the node
//   Δ      (c, c) counts once if c is a constant of D and once per null
//          bound to c; a step moves one count from (old, old) to
//          (new, new)
//
// When a step's delta would cost more than recomputing a node from its
// children (or a rule does not apply, e.g. ÷ with a changed divisor), the
// node is recomputed in full and the old/new outputs are diffed — counted in
// `node_fallbacks()`. Every plan compiles; no plan is evaluated per world.
// Null-free subtrees — complete scans and ConstRel literals (valuations
// never apply to literals) — are evaluated once at Initialize and never
// step, so the differential work is confined to the world-varying
// remainder of the plan.
//
// Everything steps on 32-bit dictionary codes. A DeltaPlan, built once per
// query on the calling thread, holds the query's WorldEncoding
// (engine/world_encoding.h): one sorted dictionary of the world domain plus
// every value of the plan's literals (their nulls included), so every row
// of every world is a fixed-width row of codes and code order is Value
// order. It also holds the scanned relations' rows encoded against it, a
// null cell naming its null's slot in the WorldSpace; σ and join
// residuals compiled once to nodes over codes (CompilePred,
// engine/kernels.h: a constant resolves to the rank range it occupies or
// would occupy); and each scan's provenance. Each chain's DeltaEvaluator keeps the valuation as one
// code per null, and every node's counted output, its transitions, the join
// mirrors and the division counters as code rows in flat hash sets
// (core/code_rows.h), which reuse their slots: once a chain has reached its
// largest step, a step allocates nothing. The drivers decode rows to Tuples
// once, for the answer.
//
// Counters: every node counts calls, rows in and out and probes exactly as
// the rules above consume them, but reads no clock. The evaluator reads the
// clock once per step instead: at the end of each ApplyDelta it charges the
// time since the end of the previous step (or of Initialize, which it times
// from its start) to the root operator's `nanos`, like the SQL evaluator
// charges a subquery to its enclosing block. A step's nanos therefore
// include the Gray driver's and the enumeration driver's own work between
// two steps. Without an EvalStats nothing is counted and no clock is read.
//
// Thread-compatibility: a DeltaPlan is immutable and shared by every chain
// of a query; one DeltaEvaluator is single-threaded state, one per chain.
// Neither touches the database's relations after DeltaPlan::Compile.

#ifndef INCDB_ENGINE_DELTA_EVAL_H_
#define INCDB_ENGINE_DELTA_EVAL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ast.h"
#include "core/code_rows.h"
#include "core/columnar.h"
#include "core/database.h"
#include "core/possible_worlds.h"
#include "core/valuation.h"
#include "engine/stats.h"
#include "engine/world_encoding.h"

namespace incdb {

/// Set-level transitions of one node in one step: row i (width() codes)
/// enters the node's output when sign(i) > 0 and leaves it otherwise.
class RowChanges {
 public:
  explicit RowChanges(size_t width = 0) : width_(width) {}

  size_t size() const { return signs_.size(); }
  bool empty() const { return signs_.empty(); }
  const uint32_t* Row(size_t i) const { return rows_.data() + i * width_; }
  int sign(size_t i) const { return signs_[i]; }

  void Push(const uint32_t* row, int sign) {
    rows_.insert(rows_.end(), row, row + width_);
    signs_.push_back(static_cast<int8_t>(sign));
  }
  void Clear() {
    rows_.clear();
    signs_.clear();
  }

 private:
  size_t width_;
  std::vector<uint32_t> rows_;
  std::vector<int8_t> signs_;
};

/// One enumeration query's plan compiled for the delta evaluator: the
/// operator nodes, the query's dictionary and the encoded base rows every
/// Gray chain shares.
class DeltaPlan {
 public:
  /// Compiles `plan` against `db` for walks over `space`, which must be
  /// MakeWorldSpace(db, ...): builds the dictionary, encodes each scanned
  /// relation's rows and their provenance, and resolves every selection and
  /// residual constant to code ranks. Fails only where the plan's arity does
  /// not check against `db`'s schema. Runs on the calling thread, before any
  /// chain starts; the result is immutable.
  static Result<std::shared_ptr<const DeltaPlan>> Compile(
      const RAExprPtr& plan, const Database& db, const WorldSpace& space);

  ~DeltaPlan();
  DeltaPlan(const DeltaPlan&) = delete;
  DeltaPlan& operator=(const DeltaPlan&) = delete;

  /// The root's arity: the width of every output row.
  size_t arity() const;

  /// The tuple a root row names.
  Tuple Decode(const uint32_t* row) const;
  /// The canonical relation of a set of root rows.
  Relation Decode(const CodeRows& rows) const;

 private:
  friend class DeltaEvaluator;
  struct Op;
  struct Scan;

  DeltaPlan();
  // Appends the operators of `e` and returns the index of its root.
  // `scan_of` maps a relation name to its entry in scans_.
  Result<size_t> CompileOp(const RAExprPtr& e, const Database& db,
                           std::map<std::string, size_t>* scan_of);
  size_t EncodeScan(const Relation& r, size_t arity);

  // The query's dictionary, null slots and domain codes, shared with the
  // c-table backend's encoding.
  WorldEncoding enc_;
  // Encoded scanned relations, one per relation name.
  std::vector<Scan> scans_;
  // Operators in postorder (children before parents); the root is last.
  std::vector<Op> ops_;
};

/// Differential evaluator for one Gray chain of worlds. Usage: construct
/// over a compiled plan, Initialize on the chain's first valuation,
/// ApplyDelta per single-null step; output() and changes() expose the
/// root's rows and its per-step transitions.
class DeltaEvaluator {
 public:
  /// `stats`, when set, receives per-operator counters for the
  /// initialization and for every applied delta. `plan` must outlive the
  /// evaluator.
  DeltaEvaluator(const DeltaPlan& plan, EvalStats* stats);
  ~DeltaEvaluator();
  DeltaEvaluator(const DeltaEvaluator&) = delete;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = delete;

  /// Fully evaluates the plan in the world `v`(D) — the first world of a
  /// Gray chain — materializing every node's counted output, and the join
  /// key mirrors. `v` must bind every null of the plan's WorldSpace to a
  /// domain value. May be called again to restart on a different chain.
  Status Initialize(const Valuation& v);

  /// Applies one single-null step: `delta` must be the Gray driver's
  /// transition, over the plan's WorldSpace, from the previously evaluated
  /// world. Root-level transitions are exposed via changes() until the
  /// next call.
  Status ApplyDelta(const ValuationDelta& delta);

  /// The root's rows in the current world.
  const CodeRows& output() const;
  /// Root-level transitions of the last ApplyDelta (none after Initialize).
  const RowChanges& changes() const;

  /// Worlds answered by applying a single-null delta (i.e. ApplyDelta
  /// calls that completed differentially).
  uint64_t deltas_applied() const { return deltas_applied_; }
  /// Node-level full recomputations forced where the delta rule did not
  /// apply or would have cost more than re-deriving the node.
  uint64_t node_fallbacks() const { return node_fallbacks_; }

 private:
  struct Node;

  // Evaluates `n` in full from its children's outputs; with `emit`, the
  // rows it gains or loses against what Recompute left tracked become its
  // transitions.
  void Init(Node& n, bool emit);
  void Step(Node& n, size_t slot, uint32_t old_code);
  void Recompute(Node& n);
  // Adds `d` to the derivation count of `row` in n's output, remembering
  // the count the row had before this step.
  void Adjust(Node& n, const uint32_t* row, int64_t d);
  // Turns the step's count changes into transitions (when `emit`) and
  // drops the rows whose count reached zero.
  void Finish(Node& n, bool emit);
  void JoinPair(Node& n, const uint32_t* l, const uint32_t* r, int64_t sign);
  // Charges the time since the last reading to the root operator.
  void ChargeRoot();

  const DeltaPlan& plan_;
  EvalStats* stats_;
  // Current code of each null, by slot.
  std::vector<uint32_t> val_;
  // Incremented by each Initialize and ApplyDelta; a node row's count is
  // remembered once per step.
  uint64_t step_ = 0;
  bool initialized_ = false;
  std::chrono::steady_clock::time_point last_;
  // One node per plan operator, in the plan's postorder.
  std::vector<Node> nodes_;
  uint64_t deltas_applied_ = 0;
  uint64_t node_fallbacks_ = 0;
};

}  // namespace incdb

#endif  // INCDB_ENGINE_DELTA_EVAL_H_
