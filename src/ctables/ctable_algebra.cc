#include "ctables/ctable_algebra.h"

#include "algebra/classify.h"
#include "algebra/optimize.h"
#include "ctables/code_ctable.h"

namespace incdb {
ConditionPtr TuplesEqualCondition(const Tuple& t, const Tuple& s) {
  INCDB_CHECK(t.arity() == s.arity());
  ConditionPtr acc = Condition::True();
  for (size_t i = 0; i < t.arity(); ++i) {
    acc = Condition::And(acc, Condition::Eq(t[i], s[i]));
  }
  return acc;
}

Result<ConditionPtr> PredicateToCondition(const PredicatePtr& pred,
                                          const Tuple& t) {
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      return Condition::True();
    case Predicate::Kind::kFalse:
      return Condition::False();
    case Predicate::Kind::kCmp: {
      const Value& a = pred->lhs().Resolve(t);
      const Value& b = pred->rhs().Resolve(t);
      switch (pred->op()) {
        case CmpOp::kEq:
          return Condition::Eq(a, b);
        case CmpOp::kNe:
          return Condition::Neq(a, b);
        default: {
          if (a.is_const() && b.is_const()) {
            const bool holds = [&] {
              switch (pred->op()) {
                case CmpOp::kLt:
                  return a < b;
                case CmpOp::kLe:
                  return a <= b;
                case CmpOp::kGt:
                  return a > b;
                case CmpOp::kGe:
                  return a >= b;
                default:
                  return false;
              }
            }();
            return holds ? Condition::True() : Condition::False();
          }
          return Status::Unsupported(
              "order comparison on nulls is outside the c-table condition "
              "language: " +
              pred->ToString());
        }
      }
    }
    case Predicate::Kind::kIsNull:
      return Status::Unsupported(
          "IS NULL is not world-invariant and cannot appear in c-table "
          "conditions");
    case Predicate::Kind::kAnd: {
      INCDB_ASSIGN_OR_RETURN(ConditionPtr a,
                             PredicateToCondition(pred->left(), t));
      INCDB_ASSIGN_OR_RETURN(ConditionPtr b,
                             PredicateToCondition(pred->right(), t));
      return Condition::And(std::move(a), std::move(b));
    }
    case Predicate::Kind::kOr: {
      INCDB_ASSIGN_OR_RETURN(ConditionPtr a,
                             PredicateToCondition(pred->left(), t));
      INCDB_ASSIGN_OR_RETURN(ConditionPtr b,
                             PredicateToCondition(pred->right(), t));
      return Condition::Or(std::move(a), std::move(b));
    }
    case Predicate::Kind::kNot: {
      INCDB_ASSIGN_OR_RETURN(ConditionPtr a,
                             PredicateToCondition(pred->left(), t));
      return Condition::Not(std::move(a));
    }
  }
  return Status::Internal("unknown predicate kind");
}

Result<CTable> SelectCT(const PredicatePtr& pred, const CTable& in) {
  CTable out(in.arity());
  out.SetGlobalCondition(in.global_condition());
  for (const CTableRow& row : in.rows()) {
    INCDB_ASSIGN_OR_RETURN(ConditionPtr c, PredicateToCondition(pred, row.tuple));
    ConditionPtr combined = Condition::And(row.condition, std::move(c));
    if (!combined->IsFalse()) out.AddRow(row.tuple, std::move(combined));
  }
  return out;
}

CTable ProjectCT(const std::vector<size_t>& cols, const CTable& in) {
  CTable out(cols.size());
  out.SetGlobalCondition(in.global_condition());
  for (const CTableRow& row : in.rows()) {
    out.AddRow(row.tuple.Project(cols), row.condition);
  }
  return out;
}

CTable ProductCT(const CTable& l, const CTable& r, EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableProduct);
  CTable out(l.arity() + r.arity());
  out.SetGlobalCondition(
      Condition::And(l.global_condition(), r.global_condition()));
  for (const CTableRow& a : l.rows()) {
    for (const CTableRow& b : r.rows()) {
      ConditionPtr c = Condition::And(a.condition, b.condition);
      if (!c->IsFalse()) out.AddRow(a.tuple.Concat(b.tuple), std::move(c));
    }
  }
  scope.CountIn(l.rows().size() + r.rows().size());
  scope.CountOut(out.rows().size());
  return out;
}

Result<CTable> UnionCT(const CTable& l, const CTable& r) {
  if (l.arity() != r.arity()) {
    return Status::InvalidArgument("c-table union arity mismatch");
  }
  CTable out(l.arity());
  out.SetGlobalCondition(
      Condition::And(l.global_condition(), r.global_condition()));
  for (const CTableRow& row : l.rows()) out.AddRow(row.tuple, row.condition);
  for (const CTableRow& row : r.rows()) out.AddRow(row.tuple, row.condition);
  return out;
}

Result<CTable> DiffCT(const CTable& l, const CTable& r, EvalStats* stats) {
  if (l.arity() != r.arity()) {
    return Status::InvalidArgument("c-table difference arity mismatch");
  }
  OpScope scope(stats, EvalOp::kCTableDiff);
  CTable out(l.arity());
  out.SetGlobalCondition(
      Condition::And(l.global_condition(), r.global_condition()));
  uint64_t probes = 0;
  for (const CTableRow& a : l.rows()) {
    ConditionPtr c = a.condition;
    for (const CTableRow& b : r.rows()) {
      ++probes;
      // a survives only if b is absent or differs from a.
      c = Condition::And(
          c, Condition::Not(Condition::And(
                 b.condition, TuplesEqualCondition(a.tuple, b.tuple))));
      if (c->IsFalse()) break;
    }
    if (!c->IsFalse()) out.AddRow(a.tuple, std::move(c));
  }
  scope.CountIn(l.rows().size() + r.rows().size());
  scope.CountProbes(probes);
  scope.CountOut(out.rows().size());
  return out;
}

Result<CTable> IntersectCT(const CTable& l, const CTable& r,
                           EvalStats* stats) {
  if (l.arity() != r.arity()) {
    return Status::InvalidArgument("c-table intersection arity mismatch");
  }
  OpScope scope(stats, EvalOp::kCTableIntersect);
  CTable out(l.arity());
  out.SetGlobalCondition(
      Condition::And(l.global_condition(), r.global_condition()));
  uint64_t probes = 0;
  for (const CTableRow& a : l.rows()) {
    ConditionPtr any = Condition::False();
    for (const CTableRow& b : r.rows()) {
      ++probes;
      any = Condition::Or(
          any, Condition::And(b.condition,
                              TuplesEqualCondition(a.tuple, b.tuple)));
      if (any->IsTrue()) break;
    }
    ConditionPtr c = Condition::And(a.condition, std::move(any));
    if (!c->IsFalse()) out.AddRow(a.tuple, std::move(c));
  }
  scope.CountIn(l.rows().size() + r.rows().size());
  scope.CountProbes(probes);
  scope.CountOut(out.rows().size());
  return out;
}

Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db,
                             const EvalOptions& options) {
  EvalStats* stats = options.stats;
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  const RAExprPtr expanded = RAExpr::ExpandDivision(e, db.schema());

  std::function<Result<CTable>(const RAExprPtr&)> rec =
      [&](const RAExprPtr& e) -> Result<CTable> {
    switch (e->kind()) {
      case RAExpr::Kind::kScan:
        return db.GetTable(e->relation_name());
      case RAExpr::Kind::kConstRel:
        return CTable::FromRelation(e->literal());
      case RAExpr::Kind::kSelect: {
        INCDB_ASSIGN_OR_RETURN(CTable in, rec(e->left()));
        return SelectCT(e->predicate(), in);
      }
      case RAExpr::Kind::kProject: {
        INCDB_ASSIGN_OR_RETURN(CTable in, rec(e->left()));
        return ProjectCT(e->columns(), in);
      }
      case RAExpr::Kind::kProduct: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return ProductCT(l, r, stats);
      }
      case RAExpr::Kind::kUnion: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return UnionCT(l, r);
      }
      case RAExpr::Kind::kDiff: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return DiffCT(l, r, stats);
      }
      case RAExpr::Kind::kIntersect: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return IntersectCT(l, r, stats);
      }
      case RAExpr::Kind::kDivide:
        return Status::Internal("division should have been expanded");
      case RAExpr::Kind::kDelta: {
        CTable out(2);
        std::set<Value> adom = db.Constants();
        for (NullId id : db.Nulls()) adom.insert(Value::Null(id));
        for (const Value& v : adom) {
          out.AddRow(Tuple{v, v}, Condition::True());
        }
        return out;
      }
    }
    return Status::Internal("unknown RA node kind");
  };
  return rec(expanded);
}

Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db) {
  return EvalOnCTables(e, db, EvalOptions{});
}

namespace {

// Encodes the plan and the database, evaluates the plan once on code
// c-tables and extracts with `extract`; the arena's counters go to the
// stats after the extraction.
template <typename Extract>
Result<Relation> RunCTableQuery(const RAExprPtr& plan, const Database& db,
                                const WorldEnumOptions& opts,
                                const EvalOptions& options,
                                Extract extract) {
  const WorldSpace space = MakeWorldSpace(db, opts);
  INCDB_ASSIGN_OR_RETURN(const std::unique_ptr<CTableQuery> query,
                         CTableQuery::Make(plan, space));
  INCDB_ASSIGN_OR_RETURN(const CodeCTable result,
                         query->Eval(plan, db, options));
  Result<SortedCodeRows> rows = extract(*query, result);
  query->CountConditionWork(options.stats);
  INCDB_RETURN_IF_ERROR(rows.status());
  return query->Decode(*rows);
}

}  // namespace

Result<Relation> CertainAnswersCTable(const RAExprPtr& e, const Database& db,
                                      WorldSemantics semantics,
                                      const WorldEnumOptions& opts,
                                      const EvalOptions& options) {
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  if (semantics == WorldSemantics::kOpenWorld ||
      semantics == WorldSemantics::kWeakClosedWorld) {
    // Same soundness guard as CertainAnswersEnum: only for monotone queries
    // does the CWA intersection equal the OWA/WCWA one.
    if (!IsPositive(e)) {
      return Status::Unsupported(
          "certain answers under owa/wcwa via c-tables require a positive "
          "(monotone) query; got " +
          std::string(QueryClassName(Classify(e))));
    }
  }
  RAExprPtr plan = e;
  if (options.optimize) plan = Optimize(plan, db);
  return RunCTableQuery(
      plan, db, opts, options,
      [&](CTableQuery& q, const CodeCTable& t) {
        return q.Certain(t, opts.max_worlds, options.stats);
      });
}

Result<Relation> PossibleAnswersCTable(const RAExprPtr& e, const Database& db,
                                       const WorldEnumOptions& opts,
                                       const EvalOptions& options) {
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  RAExprPtr plan = e;
  if (options.optimize) plan = Optimize(plan, db);
  return RunCTableQuery(
      plan, db, opts, options,
      [&](CTableQuery& q, const CodeCTable& t) {
        return q.Possible(t, opts.max_worlds, options.stats);
      });
}

}  // namespace incdb
