#include "algebra/eval.h"

#include <string>
#include <vector>

#include "engine/vectorized.h"

namespace incdb {
namespace {

// Reference nested-loop division: the semantics the columnar division is
// property-tested against, also behind the public DivideRelations.
Result<Relation> DivideNestedLoop(const Relation& r, const Relation& s,
                                  EvalStats* stats) {
  if (s.arity() == 0 || s.arity() >= r.arity()) {
    return Status::InvalidArgument(
        "division requires 0 < arity(divisor) < arity(dividend); got " +
        std::to_string(s.arity()) + " and " + std::to_string(r.arity()));
  }
  OpScope scope(stats, EvalOp::kDivide);
  const size_t m = r.arity() - s.arity();
  std::vector<size_t> head(m);
  for (size_t i = 0; i < m; ++i) head[i] = i;
  Relation out(m);
  // Candidate heads: π_head(r).
  Relation heads(m);
  for (const Tuple& t : r.tuples()) heads.Add(t.Project(head));
  scope.CountIn(r.tuples().size() + s.tuples().size());
  uint64_t probes = 0;
  for (const Tuple& h : heads.tuples()) {
    bool all = true;
    for (const Tuple& sv : s.tuples()) {
      ++probes;
      if (!r.Contains(h.Concat(sv))) {
        all = false;
        break;
      }
    }
    if (all) out.Add(h);
  }
  scope.CountProbes(probes);
  scope.CountOut(out.tuples().size());
  return out;
}

// The nested-loop reference evaluator (use_hash_kernels = false): every
// operator is the textbook loop, sharing no code with the columnar kernels,
// so the differential oracle compares two independent implementations.
struct Rec {
  const Database& db;
  EvalStats* stats;

  // Evaluates `e` without copying when it is a base-relation scan: the
  // returned pointer refers either to the database's relation (whose cached
  // hash index then survives across evaluations) or to `*storage`.
  Result<const Relation*> RunRef(const RAExprPtr& e, Relation* storage) {
    if (e->kind() == RAExpr::Kind::kScan) {
      OpScope scope(stats, EvalOp::kScan);
      const Relation& r = db.GetRelation(e->relation_name());
      scope.CountOut(r.size());
      return &r;
    }
    // Literals (including cached subplan results substituted by the subplan
    // cache) are used in place, so their hash and column indexes survive.
    if (e->kind() == RAExpr::Kind::kConstRel) return &e->literal();
    INCDB_ASSIGN_OR_RETURN(*storage, Run(e));
    return storage;
  }

  Result<Relation> Run(const RAExprPtr& e) {
    switch (e->kind()) {
      case RAExpr::Kind::kScan: {
        OpScope scope(stats, EvalOp::kScan);
        const Relation& r = db.GetRelation(e->relation_name());
        scope.CountOut(r.size());
        return r;
      }
      case RAExpr::Kind::kConstRel:
        return e->literal();
      case RAExpr::Kind::kSelect: {
        Relation in_storage;
        INCDB_ASSIGN_OR_RETURN(const Relation* in,
                               RunRef(e->left(), &in_storage));
        OpScope scope(stats, EvalOp::kSelect);
        Relation out(in->arity());
        for (const Tuple& t : in->tuples()) {
          if (e->predicate()->EvalNaive(t)) out.Add(t);
        }
        scope.CountIn(in->tuples().size());
        scope.CountOut(out.tuples().size());
        return out;
      }
      case RAExpr::Kind::kProject: {
        Relation in_storage;
        INCDB_ASSIGN_OR_RETURN(const Relation* in,
                               RunRef(e->left(), &in_storage));
        OpScope scope(stats, EvalOp::kProject);
        Relation out(e->columns().size());
        for (const Tuple& t : in->tuples()) out.Add(t.Project(e->columns()));
        scope.CountIn(in->tuples().size());
        scope.CountOut(out.tuples().size());
        return out;
      }
      case RAExpr::Kind::kProduct: {
        Relation ls, rs;
        INCDB_ASSIGN_OR_RETURN(const Relation* l, RunRef(e->left(), &ls));
        INCDB_ASSIGN_OR_RETURN(const Relation* r, RunRef(e->right(), &rs));
        OpScope scope(stats, EvalOp::kProduct);
        Relation out(l->arity() + r->arity());
        for (const Tuple& a : l->tuples()) {
          for (const Tuple& b : r->tuples()) out.Add(a.Concat(b));
        }
        scope.CountIn(l->tuples().size() + r->tuples().size());
        scope.CountOut(out.tuples().size());
        return out;
      }
      case RAExpr::Kind::kUnion: {
        INCDB_ASSIGN_OR_RETURN(Relation l, Run(e->left()));
        Relation rs;
        INCDB_ASSIGN_OR_RETURN(const Relation* r, RunRef(e->right(), &rs));
        OpScope scope(stats, EvalOp::kUnion);
        scope.CountIn(l.tuples().size() + r->tuples().size());
        l.AddAll(*r);
        scope.CountOut(l.tuples().size());
        return l;
      }
      case RAExpr::Kind::kDiff:
      case RAExpr::Kind::kIntersect: {
        Relation ls, rs;
        INCDB_ASSIGN_OR_RETURN(const Relation* l, RunRef(e->left(), &ls));
        INCDB_ASSIGN_OR_RETURN(const Relation* r, RunRef(e->right(), &rs));
        // − keeps the left tuples r lacks, ∩ the ones it has.
        const bool keep_members = e->kind() == RAExpr::Kind::kIntersect;
        OpScope scope(stats, keep_members ? EvalOp::kIntersect
                                          : EvalOp::kDiff);
        Relation out(l->arity());
        for (const Tuple& t : l->tuples()) {
          if (r->Contains(t) == keep_members) out.Add(t);
        }
        scope.CountIn(l->tuples().size() + r->tuples().size());
        scope.CountProbes(l->tuples().size());
        scope.CountOut(out.tuples().size());
        return out;
      }
      case RAExpr::Kind::kDivide: {
        Relation ls, rs;
        INCDB_ASSIGN_OR_RETURN(const Relation* l, RunRef(e->left(), &ls));
        INCDB_ASSIGN_OR_RETURN(const Relation* r, RunRef(e->right(), &rs));
        return DivideNestedLoop(*l, *r, stats);
      }
      case RAExpr::Kind::kDelta: {
        OpScope scope(stats, EvalOp::kDelta);
        Relation out(2);
        for (const Value& v : db.ActiveDomain()) out.Add(Tuple{v, v});
        scope.CountOut(out.tuples().size());
        return out;
      }
    }
    return Status::Internal("unknown RA node kind");
  }
};

}  // namespace

Result<Relation> DivideRelations(const Relation& r, const Relation& s) {
  return DivideNestedLoop(r, s, /*stats=*/nullptr);
}

Result<Relation> EvalNaive(const RAExprPtr& e, const Database& db,
                           const EvalOptions& options) {
  // Batch-at-a-time evaluation over columnar storage; the nested-loop
  // reference answers identically, only slower.
  if (options.use_hash_kernels) return EvalVectorized(e, db, options);
  // Validate typing once at the root.
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  Rec rec{db, options.stats};
  return rec.Run(e);
}

Result<Relation> EvalNaive(const RAExprPtr& e, const Database& db) {
  return EvalNaive(e, db, EvalOptions{});
}

Result<Relation> EvalComplete(const RAExprPtr& e, const Database& db,
                              const EvalOptions& options) {
  if (!db.IsComplete()) {
    return Status::InvalidArgument(
        "EvalComplete called on a database with nulls");
  }
  return EvalNaive(e, db, options);
}

Result<Relation> EvalComplete(const RAExprPtr& e, const Database& db) {
  return EvalComplete(e, db, EvalOptions{});
}

}  // namespace incdb
