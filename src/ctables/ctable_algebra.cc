#include "ctables/ctable_algebra.h"

#include <algorithm>
#include <unordered_set>

#include "algebra/classify.h"
#include "algebra/optimize.h"
#include "ctables/ctable_kernels.h"

namespace incdb {
RowIndex::RowIndex(const CTable& t) : num_rows_(t.rows().size()) {
  const auto& rows = t.rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].tuple.HasNull()) {
      null_rows_.push_back(i);
    } else {
      complete_[rows[i].tuple].push_back(i);
    }
  }
}

const std::vector<size_t>& RowIndex::ExactRows(const Tuple& t) const {
  static const std::vector<size_t> kNone;
  const auto it = complete_.find(t);
  return it == complete_.end() ? kNone : it->second;
}

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

Result<CTable> SelectCT(const PredicatePtr& pred, const CTable& in,
                        ConditionNormalizer* norm) {
  CTable out(in.arity());
  out.SetGlobalCondition(in.global_condition());
  for (const CTableRow& row : in.rows()) {
    INCDB_ASSIGN_OR_RETURN(ConditionPtr c, PredicateToCondition(pred, row.tuple));
    ConditionPtr combined = Condition::And(row.condition, std::move(c));
    if (norm != nullptr) combined = norm->Normalize(combined);
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

CTable ProductCT(const CTable& l, const CTable& r, EvalStats* stats,
                 ConditionNormalizer* norm) {
  OpScope scope(stats, EvalOp::kCTableProduct);
  CTable out(l.arity() + r.arity());
  ConditionPtr global =
      Condition::And(l.global_condition(), r.global_condition());
  if (norm != nullptr) global = norm->Normalize(global);
  out.SetGlobalCondition(std::move(global));
  for (const CTableRow& a : l.rows()) {
    for (const CTableRow& b : r.rows()) {
      ConditionPtr c = Condition::And(a.condition, b.condition);
      if (norm != nullptr) c = norm->Normalize(c);
      if (!c->IsFalse()) out.AddRow(a.tuple.Concat(b.tuple), std::move(c));
    }
  }
  scope.CountIn(l.rows().size() + r.rows().size());
  scope.CountOut(out.rows().size());
  return out;
}

Result<CTable> UnionCT(const CTable& l, const CTable& r,
                       ConditionNormalizer* norm) {
  if (l.arity() != r.arity()) {
    return Status::InvalidArgument("c-table union arity mismatch");
  }
  CTable out(l.arity());
  ConditionPtr global =
      Condition::And(l.global_condition(), r.global_condition());
  if (norm != nullptr) global = norm->Normalize(global);
  out.SetGlobalCondition(std::move(global));
  for (const CTableRow& row : l.rows()) out.AddRow(row.tuple, row.condition);
  for (const CTableRow& row : r.rows()) out.AddRow(row.tuple, row.condition);
  return out;
}

Result<CTable> DiffCT(const CTable& l, const CTable& r, EvalStats* stats,
                      ConditionNormalizer* norm) {
  if (l.arity() != r.arity()) {
    return Status::InvalidArgument("c-table difference arity mismatch");
  }
  OpScope scope(stats, EvalOp::kCTableDiff);
  CTable out(l.arity());
  ConditionPtr global =
      Condition::And(l.global_condition(), r.global_condition());
  if (norm != nullptr) global = norm->Normalize(global);
  out.SetGlobalCondition(std::move(global));
  const RowIndex index(r);
  uint64_t probes = 0;
  for (const CTableRow& a : l.rows()) {
    ConditionPtr c = a.condition;
    index.ForEachCandidate(a.tuple, [&](size_t i) {
      ++probes;
      const CTableRow& b = r.rows()[i];
      // a survives only if b is absent or differs from a.
      c = Condition::And(
          c, Condition::Not(Condition::And(
                 b.condition, TuplesEqualCondition(a.tuple, b.tuple))));
      return !c->IsFalse();
    });
    if (norm != nullptr) c = norm->Normalize(c);
    if (!c->IsFalse()) out.AddRow(a.tuple, std::move(c));
  }
  scope.CountIn(l.rows().size() + r.rows().size());
  scope.CountProbes(probes);
  scope.CountOut(out.rows().size());
  return out;
}

Result<CTable> IntersectCT(const CTable& l, const CTable& r, EvalStats* stats,
                           ConditionNormalizer* norm) {
  if (l.arity() != r.arity()) {
    return Status::InvalidArgument("c-table intersection arity mismatch");
  }
  OpScope scope(stats, EvalOp::kCTableIntersect);
  CTable out(l.arity());
  ConditionPtr global =
      Condition::And(l.global_condition(), r.global_condition());
  if (norm != nullptr) global = norm->Normalize(global);
  out.SetGlobalCondition(std::move(global));
  const RowIndex index(r);
  uint64_t probes = 0;
  for (const CTableRow& a : l.rows()) {
    ConditionPtr any = Condition::False();
    index.ForEachCandidate(a.tuple, [&](size_t i) {
      ++probes;
      const CTableRow& b = r.rows()[i];
      any = Condition::Or(
          any, Condition::And(b.condition,
                              TuplesEqualCondition(a.tuple, b.tuple)));
      return !any->IsTrue();
    });
    ConditionPtr c = Condition::And(a.condition, std::move(any));
    if (norm != nullptr) c = norm->Normalize(c);
    if (!c->IsFalse()) out.AddRow(a.tuple, std::move(c));
  }
  scope.CountIn(l.rows().size() + r.rows().size());
  scope.CountProbes(probes);
  scope.CountOut(out.rows().size());
  return out;
}

namespace {

// Shared evaluator body. `norm == nullptr` is the legacy un-normalized
// pipeline (the reference semantics the normalizing path is tested
// against); with a normalizer the σ-over-× peephole may run the fused hash
// equi-join kernel.
Result<CTable> EvalCT(const RAExprPtr& e, const CDatabase& db,
                      const EvalOptions& options, ConditionNormalizer* norm) {
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
        if (norm != nullptr && options.use_hash_kernels &&
            e->left()->kind() == RAExpr::Kind::kProduct) {
          INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()->left()));
          INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->left()->right()));
          const JoinSplit split =
              SplitForEquiJoin(e->predicate(), l.arity());
          if (!split.keys.empty() &&
              ResidualSafeForCTableJoin(split.residual.get())) {
            return JoinCT(l, r, split.keys, split.residual, norm, stats);
          }
          CTable prod = ProductCT(l, r, stats, norm);
          return SelectCT(e->predicate(), prod, norm);
        }
        INCDB_ASSIGN_OR_RETURN(CTable in, rec(e->left()));
        return SelectCT(e->predicate(), in, norm);
      }
      case RAExpr::Kind::kProject: {
        INCDB_ASSIGN_OR_RETURN(CTable in, rec(e->left()));
        return ProjectCT(e->columns(), in);
      }
      case RAExpr::Kind::kProduct: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return ProductCT(l, r, stats, norm);
      }
      case RAExpr::Kind::kUnion: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return UnionCT(l, r, norm);
      }
      case RAExpr::Kind::kDiff: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return DiffCT(l, r, stats, norm);
      }
      case RAExpr::Kind::kIntersect: {
        INCDB_ASSIGN_OR_RETURN(CTable l, rec(e->left()));
        INCDB_ASSIGN_OR_RETURN(CTable r, rec(e->right()));
        return IntersectCT(l, r, stats, norm);
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

}  // namespace

Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db,
                             const EvalOptions& options) {
  return EvalCT(e, db, options, nullptr);
}

Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db) {
  return EvalOnCTables(e, db, EvalOptions{});
}

Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db,
                             const EvalOptions& options,
                             ConditionNormalizer* norm) {
  INCDB_CHECK(norm != nullptr);
  return EvalCT(e, db, options, norm);
}

ConditionPtr TupleMembershipCondition(const CTable& t, const RowIndex& index,
                                      const Tuple& cand) {
  ConditionPtr dt = Condition::False();
  index.ForEachCandidate(cand, [&](size_t i) {
    const CTableRow& row = t.rows()[i];
    dt = Condition::Or(
        std::move(dt),
        Condition::And(row.condition, TuplesEqualCondition(row.tuple, cand)));
    return true;
  });
  return dt;
}

Result<Relation> CertainAnswersFromCTable(const CTable& t,
                                          const std::vector<Value>& domain,
                                          ConditionNormalizer* norm,
                                          uint64_t budget, EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableExtract);
  scope.CountIn(t.rows().size());
  const ConditionPtr global = norm->Normalize(t.global_condition());

  const std::set<NullId> nulls = t.Nulls();
  if (!nulls.empty() && domain.empty()) {
    // No domain values to instantiate the nulls: the represented world set
    // is empty, exactly as enumeration would find (0 worlds → empty ⋂).
    return Relation(t.arity());
  }

  // One witness valuation of the global condition. Every certain tuple is
  // in every world, so the witness world's tuples are an exact candidate
  // superset — |rows| candidates instead of |domain|^#nulls worlds.
  Valuation v0;
  INCDB_ASSIGN_OR_RETURN(
      bool global_sat, SatisfiableOverDomain(global, domain, norm, budget, &v0));
  if (!global_sat) {
    return Status::InvalidArgument(
        "c-table global condition is unsatisfiable over the domain: the "
        "represented world set is empty");
  }
  for (NullId id : nulls) {
    if (!v0.IsBound(id)) v0.Bind(id, domain[0]);
  }
  bool global_ok = false;
  const Relation world0 = t.ApplyValuation(v0, &global_ok);
  INCDB_CHECK(global_ok);

  // Each candidate's disjunction D_t only collects its exact-match rows
  // plus the null-carrying rows.
  const RowIndex index(t);
  const auto& rows = t.rows();
  uint64_t sat_checks = 0;
  Relation out(t.arity());
  for (const Tuple& cand : world0.tuples()) {
    // D_t = ⋁_rows (cond_r ∧ "tuple_r = cand"); cand is certain iff
    // global ∧ ¬D_t has no satisfying valuation over the domain.
    ConditionPtr dt = Condition::False();
    bool fast_true = false;
    for (size_t i : index.ExactRows(cand)) {
      ConditionPtr c = norm->Normalize(rows[i].condition);
      if (c->IsTrue()) {
        // An unconditional row carrying cand: present in every world.
        fast_true = true;
        break;
      }
      dt = Condition::Or(std::move(dt), std::move(c));
    }
    if (fast_true) {
      out.Add(cand);
      continue;
    }
    for (size_t i : index.NullRows()) {
      dt = Condition::Or(
          std::move(dt),
          Condition::And(rows[i].condition,
                         TuplesEqualCondition(rows[i].tuple, cand)));
    }
    ++sat_checks;
    INCDB_ASSIGN_OR_RETURN(
        bool escapes,
        SatisfiableOverDomain(
            Condition::And(global, Condition::Not(std::move(dt))), domain,
            norm, budget));
    if (!escapes) out.Add(cand);
  }
  scope.CountProbes(sat_checks);
  scope.CountOut(out.size());
  return out;
}

Result<Relation> PossibleAnswersFromCTable(const CTable& t,
                                           const std::vector<Value>& domain,
                                           ConditionNormalizer* norm,
                                           uint64_t budget, EvalStats* stats) {
  OpScope scope(stats, EvalOp::kCTableExtract);
  scope.CountIn(t.rows().size());
  const ConditionPtr global = norm->Normalize(t.global_condition());
  std::unordered_set<Tuple, TupleHash> possible;
  uint64_t sat_checks = 0;

  for (const CTableRow& row : t.rows()) {
    // A ground row can only add its own tuple; once that tuple is known to
    // be possible, the row's check cannot change the answer.
    if (!row.tuple.HasNull() && possible.count(row.tuple) > 0) continue;
    ConditionPtr base = norm->Normalize(
        Condition::And(global, row.condition));
    if (base->IsFalse()) continue;

    // Distinct nulls of the tuple, in order of appearance.
    std::vector<NullId> tuple_nulls;
    for (size_t i = 0; i < row.tuple.arity(); ++i) {
      const Value& v = row.tuple[i];
      if (v.is_null() &&
          std::find(tuple_nulls.begin(), tuple_nulls.end(), v.null_id()) ==
              tuple_nulls.end()) {
        tuple_nulls.push_back(v.null_id());
      }
    }
    if (!tuple_nulls.empty() && domain.empty()) continue;  // no worlds

    // DFS over groundings of the tuple's nulls; each branch substitutes
    // into the condition and prunes as soon as it normalizes to false. At
    // a leaf the remaining (non-tuple) nulls are checked for a satisfying
    // valuation — the leaf's grounding extends to a world iff one exists.
    Valuation binding;
    std::function<Result<bool>(size_t, const ConditionPtr&)> dfs =
        [&](size_t depth, const ConditionPtr& cond) -> Result<bool> {
      if (cond->IsFalse()) return true;
      if (depth == tuple_nulls.size()) {
        ++sat_checks;
        INCDB_ASSIGN_OR_RETURN(
            bool sat, SatisfiableOverDomain(cond, domain, norm, budget));
        if (sat) possible.insert(binding.Apply(row.tuple));
        return true;
      }
      const NullId id = tuple_nulls[depth];
      for (const Value& v : domain) {
        binding.Bind(id, v);
        ConditionPtr sub =
            norm->Normalize(ConditionNormalizer::Substitute(cond, id, v));
        INCDB_RETURN_IF_ERROR(dfs(depth + 1, sub).status());
      }
      binding.Unbind(id);
      return true;
    };
    INCDB_RETURN_IF_ERROR(dfs(0, base).status());
  }
  Relation out(t.arity(),
               std::vector<Tuple>(possible.begin(), possible.end()));
  scope.CountProbes(sat_checks);
  scope.CountOut(out.size());
  return out;
}

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
  const CDatabase cdb = CDatabase::FromDatabase(db);
  ConditionNormalizer norm;
  INCDB_ASSIGN_OR_RETURN(CTable result,
                         EvalOnCTables(plan, cdb, options, &norm));
  auto answers = CertainAnswersFromCTable(result, WorldDomain(db, opts),
                                          &norm, opts.max_worlds,
                                          options.stats);
  if (options.stats != nullptr) {
    options.stats->CountCondSimplified(norm.simplified());
    options.stats->CountUnsatPruned(norm.unsat_pruned());
  }
  return answers;
}

Result<Relation> PossibleAnswersCTable(const RAExprPtr& e, const Database& db,
                                       const WorldEnumOptions& opts,
                                       const EvalOptions& options) {
  INCDB_RETURN_IF_ERROR(e->InferArity(db.schema()).status());
  RAExprPtr plan = e;
  if (options.optimize) plan = Optimize(plan, db);
  const CDatabase cdb = CDatabase::FromDatabase(db);
  ConditionNormalizer norm;
  INCDB_ASSIGN_OR_RETURN(CTable result,
                         EvalOnCTables(plan, cdb, options, &norm));
  auto answers = PossibleAnswersFromCTable(result, WorldDomain(db, opts),
                                           &norm, opts.max_worlds,
                                           options.stats);
  if (options.stats != nullptr) {
    options.stats->CountCondSimplified(norm.simplified());
    options.stats->CountUnsatPruned(norm.unsat_pruned());
  }
  return answers;
}

}  // namespace incdb
