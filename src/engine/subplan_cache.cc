#include "engine/subplan_cache.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "algebra/optimize.h"
#include "engine/kernels.h"

namespace incdb {
namespace {

// Forces a relation's lazily-built shared state on the calling thread so
// parallel workers only read it.
void ForceRelation(const Relation& r) {
  r.tuples();
  r.HashIndex();
  r.IsComplete();
  r.Columnar();
}

uint64_t MixStamp(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

struct Preparer {
  const Database& db;
  const EvalOptions& options;
  PreparedPlan* out;

  // Per-node invariance memo (trees share subtrees via shared_ptr).
  std::unordered_map<const RAExpr*, bool> invariant_memo;
  // Stamped fingerprint → (structural signature, spliced node); the
  // signature guards against fingerprint collisions.
  std::unordered_map<uint64_t,
                     std::vector<std::pair<std::string, RAExprPtr>>>
      memo;

  // True when `e` evaluates identically in every world of db: all leaves
  // are null-free relations and Δ (whose value is the world's active
  // domain) does not occur.
  bool Invariant(const RAExprPtr& e) {
    auto it = invariant_memo.find(e.get());
    if (it != invariant_memo.end()) return it->second;
    bool inv = true;
    switch (e->kind()) {
      case RAExpr::Kind::kConstRel:
        // Valuations apply to the database, never to plan literals, so a
        // literal (even one containing nulls) is the same in every world.
        inv = true;
        break;
      case RAExpr::Kind::kScan:
        inv = db.GetRelation(e->relation_name()).IsComplete();
        break;
      case RAExpr::Kind::kDelta:
        inv = false;
        break;
      default:
        if (e->left() != nullptr && !Invariant(e->left())) inv = false;
        if (inv && e->right() != nullptr && !Invariant(e->right())) {
          inv = false;
        }
        break;
    }
    invariant_memo.emplace(e.get(), inv);
    return inv;
  }

  // Structural fingerprint stamped with the identity of every base relation
  // the subtree reads, so a reused cache never outlives a mutation.
  uint64_t StampKey(const RAExprPtr& e) {
    uint64_t h = RAFingerprint(e);
    return Stamp(e, h);
  }

  uint64_t Stamp(const RAExprPtr& e, uint64_t h) {
    if (e->kind() == RAExpr::Kind::kScan) {
      const Relation& r = db.GetRelation(e->relation_name());
      for (char c : e->relation_name()) {
        h = MixStamp(h, static_cast<unsigned char>(c));
      }
      h = MixStamp(h, r.version());
      h = MixStamp(h, r.size());
      h = MixStamp(h, r.IsComplete() ? 1 : 0);
      return h;
    }
    if (e->left() != nullptr) h = Stamp(e->left(), h);
    if (e->right() != nullptr) h = Stamp(e->right(), h);
    return h;
  }

  // Evaluates the invariant subtree once (memoized) and returns the literal
  // node carrying the shared result.
  Result<RAExprPtr> Materialize(const RAExprPtr& e) {
    const uint64_t key = StampKey(e);
    std::string sig = e->ToString();
    auto& bucket = memo[key];
    for (const auto& [stored_sig, node] : bucket) {
      if (stored_sig == sig) {
        ++out->prepare_hits;
        ++out->cached_subplans;
        return node;
      }
    }
    INCDB_ASSIGN_OR_RETURN(Relation r, EvalNaive(e, db, options));
    ForceRelation(r);
    RAExprPtr node = RAExpr::ConstRel(std::move(r));
    ++out->unique_evals;
    ++out->cached_subplans;
    bucket.emplace_back(std::move(sig), node);
    return node;
  }

  Result<RAExprPtr> Rewrite(const RAExprPtr& e) {
    if (Invariant(e)) {
      if (e->kind() == RAExpr::Kind::kConstRel) {
        // Already a literal: splicing would change nothing, but force its
        // lazy state so workers can read it.
        ForceRelation(e->literal());
        return e;
      }
      return Materialize(e);
    }
    switch (e->kind()) {
      case RAExpr::Kind::kSelect: {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr c, Rewrite(e->left()));
        return c == e->left() ? e : RAExpr::Select(e->predicate(), c);
      }
      case RAExpr::Kind::kProject: {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr c, Rewrite(e->left()));
        return c == e->left() ? e : RAExpr::Project(e->columns(), c);
      }
      case RAExpr::Kind::kProduct:
      case RAExpr::Kind::kUnion:
      case RAExpr::Kind::kDiff:
      case RAExpr::Kind::kIntersect:
      case RAExpr::Kind::kDivide: {
        INCDB_ASSIGN_OR_RETURN(RAExprPtr l, Rewrite(e->left()));
        INCDB_ASSIGN_OR_RETURN(RAExprPtr r, Rewrite(e->right()));
        if (l == e->left() && r == e->right()) return e;
        switch (e->kind()) {
          case RAExpr::Kind::kProduct:
            return RAExpr::Product(l, r);
          case RAExpr::Kind::kUnion:
            return RAExpr::Union(l, r);
          case RAExpr::Kind::kDiff:
            return RAExpr::Diff(l, r);
          case RAExpr::Kind::kIntersect:
            return RAExpr::Intersect(l, r);
          default:
            return RAExpr::Divide(l, r);
        }
      }
      default:
        return e;  // kScan / kDelta / kConstRel, not invariant here
    }
  }

  // Walks the prepared plan and pre-builds, on the driver thread, the
  // column indexes the columnar hash join will probe: the equi-join keys of
  // a σ over a product with a literal build side. Workers then find them via
  // FindColumnIndex and skip their per-world build phases.
  void PrebuildIndexes(const RAExprPtr& e) {
    if (e->kind() == RAExpr::Kind::kSelect &&
        e->left()->kind() == RAExpr::Kind::kProduct &&
        e->left()->right()->kind() == RAExpr::Kind::kConstRel &&
        options.use_hash_kernels) {
      const RAExprPtr& l = e->left()->left();
      const RAExprPtr& r = e->left()->right();
      auto la = l->InferArity(db.schema());
      if (la.ok()) {
        JoinSplit split = SplitForEquiJoin(e->predicate(), *la);
        if (!split.keys.empty()) {
          std::vector<size_t> r_cols;
          r_cols.reserve(split.keys.size());
          for (const JoinKey& k : split.keys) r_cols.push_back(k.right_col);
          r->literal().BuildColumnIndex(r_cols);
        }
      }
    }
    if (e->left() != nullptr) PrebuildIndexes(e->left());
    if (e->right() != nullptr) PrebuildIndexes(e->right());
  }
};

}  // namespace

Result<PreparedPlan> PrepareWorldInvariantPlan(const RAExprPtr& e,
                                               const Database& db,
                                               const EvalOptions& options) {
  PreparedPlan prepared;
  prepared.plan = e;
  if (e == nullptr || !e->InferArity(db.schema()).ok()) {
    return prepared;  // the evaluator reports the typing error
  }
  Preparer prep{db, options, &prepared};
  prepared.whole_plan_invariant = prep.Invariant(e);
  INCDB_ASSIGN_OR_RETURN(prepared.plan, prep.Rewrite(e));
  prep.PrebuildIndexes(prepared.plan);
  if (options.stats != nullptr) {
    options.stats->CountCacheMisses(prepared.unique_evals);
    options.stats->CountCacheHits(prepared.prepare_hits);
  }
  return prepared;
}

void ForcePlanLiterals(const RAExprPtr& e) {
  if (e == nullptr) return;
  if (e->kind() == RAExpr::Kind::kConstRel) ForceRelation(e->literal());
  if (e->left() != nullptr) ForcePlanLiterals(e->left());
  if (e->right() != nullptr) ForcePlanLiterals(e->right());
}

}  // namespace incdb
