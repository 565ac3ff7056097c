#include "algebra/eval_3vl.h"

#include "engine/vectorized.h"

namespace incdb {

TruthValue TupleEquals3VL(const Tuple& a, const Tuple& b) {
  if (a.arity() != b.arity()) return TruthValue::kFalse;
  TruthValue acc = TruthValue::kTrue;
  for (size_t i = 0; i < a.arity(); ++i) {
    TruthValue eq;
    if (a[i].is_null() || b[i].is_null()) {
      eq = TruthValue::kUnknown;
    } else {
      eq = (a[i] == b[i]) ? TruthValue::kTrue : TruthValue::kFalse;
    }
    acc = And3(acc, eq);
    if (acc == TruthValue::kFalse) return acc;
  }
  return acc;
}

Result<Relation> Eval3VL(const RAExprPtr& e, const Database& db,
                         const EvalOptions& options) {
  return EvalVectorized(e, db, options, NullLogic::kThreeValued);
}

Result<Relation> Eval3VL(const RAExprPtr& e, const Database& db) {
  return Eval3VL(e, db, EvalOptions{});
}

Result<Relation> Eval3VLReference(const RAExprPtr& e, const Database& db) {
  // The fold: the reference semantics, tuple by tuple.
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());

  struct Rec {
    const Database& db;
    Relation Run(const RAExprPtr& e) {
      switch (e->kind()) {
        case RAExpr::Kind::kScan:
          return db.GetRelation(e->relation_name());
        case RAExpr::Kind::kConstRel:
          return e->literal();
        case RAExpr::Kind::kSelect: {
          Relation in = Run(e->left());
          Relation out(in.arity());
          for (const Tuple& t : in.tuples()) {
            if (e->predicate()->Eval3VL(t) == TruthValue::kTrue) out.Add(t);
          }
          return out;
        }
        case RAExpr::Kind::kProject: {
          Relation in = Run(e->left());
          Relation out(e->columns().size());
          for (const Tuple& t : in.tuples()) out.Add(t.Project(e->columns()));
          return out;
        }
        case RAExpr::Kind::kProduct: {
          Relation l = Run(e->left());
          Relation r = Run(e->right());
          Relation out(l.arity() + r.arity());
          for (const Tuple& a : l.tuples()) {
            for (const Tuple& b : r.tuples()) out.Add(a.Concat(b));
          }
          return out;
        }
        case RAExpr::Kind::kUnion: {
          Relation l = Run(e->left());
          l.AddAll(Run(e->right()));
          return l;
        }
        case RAExpr::Kind::kDiff: {
          // SQL NOT IN: keep t iff t=s is FALSE for every s (no TRUE, no
          // UNKNOWN).
          Relation l = Run(e->left());
          Relation r = Run(e->right());
          Relation out(l.arity());
          for (const Tuple& t : l.tuples()) {
            bool keep = true;
            for (const Tuple& s : r.tuples()) {
              if (TupleEquals3VL(t, s) != TruthValue::kFalse) {
                keep = false;
                break;
              }
            }
            if (keep) out.Add(t);
          }
          return out;
        }
        case RAExpr::Kind::kIntersect: {
          // SQL IN: keep t iff some s compares TRUE.
          Relation l = Run(e->left());
          Relation r = Run(e->right());
          Relation out(l.arity());
          for (const Tuple& t : l.tuples()) {
            for (const Tuple& s : r.tuples()) {
              if (TupleEquals3VL(t, s) == TruthValue::kTrue) {
                out.Add(t);
                break;
              }
            }
          }
          return out;
        }
        case RAExpr::Kind::kDivide: {
          Relation r = Run(e->left());
          Relation s = Run(e->right());
          const size_t m = r.arity() - s.arity();
          std::vector<size_t> head(m);
          for (size_t i = 0; i < m; ++i) head[i] = i;
          Relation heads(m);
          for (const Tuple& t : r.tuples()) heads.Add(t.Project(head));
          Relation out(m);
          for (const Tuple& h : heads.tuples()) {
            bool all = true;
            for (const Tuple& sv : s.tuples()) {
              const Tuple want = h.Concat(sv);
              bool found = false;
              for (const Tuple& rt : r.tuples()) {
                if (TupleEquals3VL(rt, want) == TruthValue::kTrue) {
                  found = true;
                  break;
                }
              }
              if (!found) {
                all = false;
                break;
              }
            }
            if (all) out.Add(h);
          }
          return out;
        }
        case RAExpr::Kind::kDelta: {
          Relation out(2);
          for (const Value& v : db.ActiveDomain()) out.Add(Tuple{v, v});
          return out;
        }
      }
      return Relation(0);
    }
  };

  Rec rec{db};
  return rec.Run(e);
}

}  // namespace incdb
