#include "engine/query_engine.h"

#include <utility>

#include "algebra/certain.h"
#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "algebra/optimize.h"
#include "algebra/parser.h"
#include "ctables/ctable_algebra.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/rewrite.h"
#include "sql/to_algebra.h"

namespace incdb {

const char* AnswerNotionName(AnswerNotion n) {
  switch (n) {
    case AnswerNotion::kNaive:
      return "naive";
    case AnswerNotion::k3VL:
      return "3vl";
    case AnswerNotion::kMaybe:
      return "maybe";
    case AnswerNotion::kCertainNaive:
      return "certain-naive";
    case AnswerNotion::kCertainEnum:
      return "certain-enum";
    case AnswerNotion::kCertainObject:
      return "certain-object";
    case AnswerNotion::kPossible:
      return "possible";
    case AnswerNotion::kCertainWithProbability:
      return "certain-probability";
  }
  return "?";
}

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kEnumeration:
      return "enumeration";
    case Backend::kCTable:
      return "ctable";
  }
  return "?";
}

Result<QueryResponse> QueryEngine::Run(const QueryRequest& request) const {
  const QueryInput& input = request.input;

  QueryResponse resp;
  // Collect stats locally so the response always carries them; a caller-
  // provided sink receives a merged copy at the end.
  EvalOptions opts = request.eval;
  opts.stats = &resp.stats;

  RAExprPtr ra;
  SqlQuery parsed_sql;
  const SqlQuery* sql = nullptr;
  switch (input.kind()) {
    case QueryInput::Kind::kRa:
      ra = input.ra();
      break;
    case QueryInput::Kind::kSql:
      sql = input.sql().get();
      break;
    case QueryInput::Kind::kRaText: {
      INCDB_ASSIGN_OR_RETURN(ra, ParseRA(input.text()));
      break;
    }
    case QueryInput::Kind::kSqlText: {
      INCDB_ASSIGN_OR_RETURN(parsed_sql, ParseSql(input.text()));
      sql = &parsed_sql;
      break;
    }
    case QueryInput::Kind::kNone:
      return Status::InvalidArgument("QueryRequest carries no input");
  }

  // Classify via the RA form; for SQL input, through the (partial) RA
  // translation when the query falls in its fragment.
  RAExprPtr ra_view = ra;
  if (ra_view == nullptr && sql != nullptr) {
    auto translated = SqlToAlgebra(*sql, db_.schema());
    if (translated.ok()) ra_view = *std::move(translated);
  }
  if (ra_view != nullptr) {
    resp.fragment = Classify(ra_view);
    resp.naive_guarantee = NaiveEvaluationWorks(ra_view, request.semantics);
    resp.plan = ra_view;
  }

  const bool world_quantified =
      request.notion == AnswerNotion::kCertainEnum ||
      request.notion == AnswerNotion::kPossible ||
      request.notion == AnswerNotion::kCertainWithProbability;
  if (world_quantified) resp.backend = request.backend;

  auto finish = [&](Result<Relation> r) -> Result<QueryResponse> {
    INCDB_ASSIGN_OR_RETURN(resp.relation, std::move(r));
    if (request.eval.stats != nullptr) request.eval.stats->Merge(resp.stats);
    return resp;
  };

  if (request.backend == Backend::kCTable && !world_quantified) {
    return Status::Unsupported(
        std::string("the ctable backend computes certain-enum, possible, and "
                    "certain-probability answers; notion ") +
        AnswerNotionName(request.notion) + " runs on the enumeration backend");
  }

  if (sql != nullptr) {
    switch (request.notion) {
      case AnswerNotion::kNaive:
        return finish(EvalSql(*sql, db_, SqlEvalMode::kNaive, opts));
      case AnswerNotion::k3VL:
        return finish(EvalSql(*sql, db_, SqlEvalMode::kSql3VL, opts));
      case AnswerNotion::kMaybe:
        return finish(EvalSql(*sql, db_, SqlEvalMode::kSqlMaybe, opts));
      case AnswerNotion::kCertainNaive:
        return finish(EvalSqlCertain(*sql, db_, request.force, opts));
      case AnswerNotion::kCertainObject:
        // certainO(Q, D) = Q(D) naïvely, nulls retained (eq. (9)).
        return finish(EvalSql(*sql, db_, SqlEvalMode::kNaive, opts));
      case AnswerNotion::kCertainEnum:
      case AnswerNotion::kPossible:
      case AnswerNotion::kCertainWithProbability:
        // Both backends run on the RA translation; surface its error if the
        // query has none.
        if (ra_view == nullptr) {
          INCDB_ASSIGN_OR_RETURN(ra_view, SqlToAlgebra(*sql, db_.schema()));
        }
        ra = ra_view;
        break;
    }
  }

  // Optimize RA plans once here; the drivers (enumeration and c-table
  // alike) see `optimize = false` so they don't re-run the rewriter. The
  // optimized plan answers bit-identically (and classifies identically —
  // checked by Optimize), so the fragment/guarantee fields above still
  // describe it.
  if (ra != nullptr && opts.optimize) {
    resp.optimized_plan = Optimize(ra, db_);
    ra = resp.optimized_plan;
    opts.optimize = false;
  }

  if (request.backend == Backend::kCTable) {
    switch (request.notion) {
      case AnswerNotion::kCertainEnum:
        return finish(CertainAnswersCTable(ra, db_, request.semantics,
                                           request.world_options, opts));
      case AnswerNotion::kPossible:
        return finish(
            PossibleAnswersCTable(ra, db_, request.world_options, opts));
      case AnswerNotion::kCertainWithProbability:
        return finish(CertainAnswersWithProbabilityCTable(
            ra, db_, request.semantics, request.probability,
            request.world_options, opts, &resp.probabilities));
      default:
        return Status::Internal("non-world-quantified notion reached the "
                                "ctable backend dispatch");
    }
  }

  switch (request.notion) {
    case AnswerNotion::kNaive:
      return finish(EvalNaive(ra, db_, opts));
    case AnswerNotion::k3VL:
      return finish(Eval3VL(ra, db_, opts));
    case AnswerNotion::kMaybe:
      return Status::Unsupported(
          "maybe answers (Codd's MAYBE operator) are defined on SQL queries; "
          "provide a QueryInput::Sql or SqlText input");
    case AnswerNotion::kCertainNaive:
      return finish(CertainAnswersNaive(ra, db_, request.semantics,
                                        request.force, opts));
    case AnswerNotion::kCertainEnum:
      return finish(CertainAnswersEnum(ra, db_, request.semantics,
                                       request.world_options, opts));
    case AnswerNotion::kCertainObject:
      return finish(CertainObjectNaive(ra, db_, opts));
    case AnswerNotion::kPossible:
      return finish(PossibleAnswersEnum(ra, db_, request.world_options, opts));
    case AnswerNotion::kCertainWithProbability:
      return finish(CertainAnswersWithProbabilityEnum(
          ra, db_, request.semantics, request.probability,
          request.world_options, opts, &resp.probabilities));
  }
  return Status::Internal("unknown answer notion");
}

}  // namespace incdb
