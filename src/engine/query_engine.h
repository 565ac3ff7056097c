// QueryEngine: the single entry point for answering a query over an
// incomplete database.
//
// The library exposes many free functions — naïve/3VL/SQL evaluation,
// certain answers by rewriting, by world enumeration, or natively on
// c-tables, possible answers — each with its own signature and
// applicability conditions. QueryEngine bundles them behind one call: a
// QueryRequest names the query (a typed QueryInput: RA or SQL, text or
// AST), the *answer notion* wanted, the world semantics, and the *backend*
// that should compute the world-quantified notions; Run picks the right
// evaluator, classifies the query into the paper's fragments, and reports
// per-operator EvalStats alongside the answer. The free functions remain
// available; the engine is a facade, not a replacement.

#ifndef INCDB_ENGINE_QUERY_ENGINE_H_
#define INCDB_ENGINE_QUERY_ENGINE_H_

#include <optional>
#include <string>
#include <utility>

#include "algebra/ast.h"
#include "algebra/classify.h"
#include "core/database.h"
#include "core/possible_worlds.h"
#include "counting/probabilistic.h"
#include "engine/stats.h"
#include "sql/ast.h"

namespace incdb {

/// What "the answer" to a query over incomplete data means.
enum class AnswerNotion {
  kNaive = 0,      ///< naïve evaluation: marked nulls as ordinary values
  k3VL,            ///< SQL's three-valued logic (what a SQL engine returns)
  kMaybe,          ///< Codd's MAYBE: rows whose condition is UNKNOWN (SQL only)
  kCertainNaive,   ///< certain answers via naïve eval + null-row filtering,
                   ///< guarded by the paper's fragment check (see `force`)
  kCertainEnum,    ///< ground-truth certain answers by world enumeration
  kCertainObject,  ///< certainO(Q,D) = Q(D): the certain answer as an object
  kPossible,       ///< possible answers: union over CWA worlds
  kCertainWithProbability,  ///< tuples with answer probability ≥ threshold,
                            ///< with per-tuple probability/CI in the response
                            ///< (counting/probabilistic.h; CWA only)
};

/// Printable notion name ("naive", "certain-naive", ...).
const char* AnswerNotionName(AnswerNotion n);

/// How the world-quantified notions (kCertainEnum, kPossible) are computed.
/// Both backends return bit-identical answers; they differ in cost shape.
enum class Backend {
  /// Enumerate the finite world space along Gray chains through the delta
  /// evaluator and intersect/union the worlds' answers.
  /// Exponential in the number of nulls.
  kEnumeration = 0,
  /// Evaluate once on the c-table representation and extract the answer
  /// from the result table's conditions (ctables/ctable_algebra.h). Never
  /// enumerates worlds; polynomial for the common case and the only way to
  /// answer databases whose world count exceeds any enumeration budget.
  kCTable,
};

/// Printable backend name ("enumeration", "ctable").
const char* BackendName(Backend b);

/// Typed query input: RA or SQL, as text to parse or as a pre-built AST.
/// Replaces the former four mutually-exclusive QueryRequest fields with one
/// value that is exactly one of the four forms (or empty).
class QueryInput {
 public:
  enum class Kind { kNone = 0, kRaText, kSqlText, kRa, kSql };

  QueryInput() = default;

  static QueryInput RaText(std::string text) {
    QueryInput in;
    in.kind_ = Kind::kRaText;
    in.text_ = std::move(text);
    return in;
  }
  static QueryInput SqlText(std::string text) {
    QueryInput in;
    in.kind_ = Kind::kSqlText;
    in.text_ = std::move(text);
    return in;
  }
  static QueryInput Ra(RAExprPtr e) {
    QueryInput in;
    in.kind_ = Kind::kRa;
    in.ra_ = std::move(e);
    return in;
  }
  static QueryInput Sql(SqlQueryPtr q) {
    QueryInput in;
    in.kind_ = Kind::kSql;
    in.sql_ = std::move(q);
    return in;
  }

  Kind kind() const { return kind_; }
  bool empty() const { return kind_ == Kind::kNone; }
  /// The text form (valid for kRaText / kSqlText).
  const std::string& text() const { return text_; }
  /// The pre-built RA expression (valid for kRa).
  const RAExprPtr& ra() const { return ra_; }
  /// The pre-built SQL query (valid for kSql).
  const SqlQueryPtr& sql() const { return sql_; }

 private:
  Kind kind_ = Kind::kNone;
  std::string text_;
  RAExprPtr ra_;
  SqlQueryPtr sql_;
};

/// One query to answer: a QueryInput plus the notion, semantics, backend,
/// and evaluation knobs.
struct QueryRequest {
  /// The query. Must be set; an empty input is InvalidArgument.
  QueryInput input;
  /// Backend for the world-quantified notions (kCertainEnum, kPossible,
  /// kCertainWithProbability); other notions ignore it. The kCTable backend
  /// supports exactly those notions (kUnsupported otherwise) and answers
  /// them bit-identically to kEnumeration (sampled probabilities included —
  /// both backends tally the same seeded valuation stream).
  Backend backend = Backend::kEnumeration;

  AnswerNotion notion = AnswerNotion::kNaive;
  /// World semantics for the certain-answer notions.
  WorldSemantics semantics = WorldSemantics::kClosedWorld;
  /// Evaluate kCertainNaive outside its guaranteed fragment (the result then
  /// carries no certainty guarantee — useful for measuring the gap).
  bool force = false;
  /// Enumeration bounds for kCertainEnum / kPossible. The kCTable backend
  /// reuses `world_options.max_worlds` as its satisfiability branch budget
  /// and the same world domain, which is what keeps answers bit-identical.
  WorldEnumOptions world_options;
  /// Stats hook, thread settings and the optimizer switch, threaded
  /// through every evaluator; `num_threads` bounds the sampling pass too.
  /// On the enumeration backend the response's stats for kCertainEnum,
  /// kPossible and exact kCertainWithProbability report delta_applied /
  /// delta_fallbacks.
  EvalOptions eval;
  /// Knobs for kCertainWithProbability: the answer threshold, the sampling
  /// seed and sample count, the exact-path gate. Other notions ignore it.
  ProbabilisticOptions probability;
};

/// Fluent construction of QueryRequests:
///
///   QueryRequestBuilder(QueryInput::SqlText("SELECT ..."))
///       .Notion(AnswerNotion::kCertainEnum)
///       .OnBackend(Backend::kCTable)
///       .Build()
class QueryRequestBuilder {
 public:
  explicit QueryRequestBuilder(QueryInput input) {
    req_.input = std::move(input);
  }

  QueryRequestBuilder& Notion(AnswerNotion n) {
    req_.notion = n;
    return *this;
  }
  QueryRequestBuilder& Semantics(WorldSemantics s) {
    req_.semantics = s;
    return *this;
  }
  QueryRequestBuilder& OnBackend(Backend b) {
    req_.backend = b;
    return *this;
  }
  QueryRequestBuilder& Force(bool force = true) {
    req_.force = force;
    return *this;
  }
  QueryRequestBuilder& Worlds(WorldEnumOptions opts) {
    req_.world_options = std::move(opts);
    return *this;
  }
  QueryRequestBuilder& Eval(EvalOptions opts) {
    req_.eval = opts;
    return *this;
  }
  QueryRequestBuilder& Probability(ProbabilisticOptions opts) {
    req_.probability = std::move(opts);
    return *this;
  }

  QueryRequest Build() const { return req_; }

 private:
  QueryRequest req_;
};

/// The answer plus what the engine learned about the query.
struct QueryResponse {
  Relation relation;
  /// Fragment of the RA form of the query (unset when the SQL query has no
  /// RA translation — e.g. aggregates or correlated subqueries).
  std::optional<QueryClass> fragment;
  /// Whether naïve evaluation computes certain answers for this query under
  /// the requested semantics (equation (4) of the paper).
  bool naive_guarantee = false;
  /// The RA form of the query as written/translated (null when the SQL
  /// query has no RA translation).
  RAExprPtr plan;
  /// The plan actually executed after the algebraic optimizer ran (null
  /// when the query ran through the SQL evaluator or `eval.optimize` was
  /// off). Equal answers are guaranteed; `explain` prints both.
  RAExprPtr optimized_plan;
  /// Per-operator counters for this run (always collected), including the
  /// condition-normalizer work of the kCTable backend and the counting
  /// layer's work for kCertainWithProbability.
  EvalStats stats;
  /// Backend that produced the relation (echoes the request for the
  /// world-quantified notions; kEnumeration for everything else).
  Backend backend = Backend::kEnumeration;
  /// kCertainWithProbability only: the full probability table — every tuple
  /// with non-zero observed probability, in canonical tuple order, with its
  /// probability, Wilson CI bounds, and whether the value is an exact count
  /// or a Monte-Carlo estimate. `relation` is this table filtered by the
  /// requested threshold.
  std::vector<TupleProbability> probabilities;
};

/// Facade over the evaluators. Holds a reference to the database; the
/// database must outlive the engine.
class QueryEngine {
 public:
  explicit QueryEngine(const Database& db) : db_(db) {}

  /// Answers one request. Errors: InvalidArgument for malformed requests
  /// (no input, both input styles, bad division arity, ...), kUnsupported
  /// when the requested notion is not defined or not guaranteed for the
  /// query (e.g. kCertainNaive outside the fragment without `force`,
  /// kMaybe on RA input, kCTable backend with a non-world-quantified
  /// notion), parse errors from the respective parsers.
  Result<QueryResponse> Run(const QueryRequest& request) const;

  const Database& db() const { return db_; }

 private:
  const Database& db_;
};

}  // namespace incdb

#endif  // INCDB_ENGINE_QUERY_ENGINE_H_
