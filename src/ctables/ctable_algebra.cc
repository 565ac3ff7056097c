#include "ctables/ctable_algebra.h"

#include "algebra/classify.h"
#include "algebra/optimize.h"
#include "ctables/code_ctable.h"

namespace incdb {

Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db) {
  if (LiteralHoldsNull(e)) {
    return Status::Unsupported(
        "a relation literal holding a null has no c-table reading: on codes "
        "it is a value, and the exported table would print it as a "
        "variable: " +
        e->ToString());
  }
  INCDB_ASSIGN_OR_RETURN(const std::unique_ptr<CTableQuery> query,
                         CTableQuery::Make(e, db));
  INCDB_ASSIGN_OR_RETURN(const CodeCTable t, query->Eval(e, db, EvalOptions{}));
  return query->Export(t);
}

namespace {

// Encodes the plan and the database over the world space of `opts` (the
// query's constants already added), evaluates the plan once on code
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
      plan, db, WithQueryConstants(e, opts), options,
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
      plan, db, WithQueryConstants(e, opts), options,
      [&](CTableQuery& q, const CodeCTable& t) {
        return q.Possible(t, opts.max_worlds, options.stats);
      });
}

}  // namespace incdb
