// Unit tests for the QueryEngine facade: one Run() call per answer notion,
// with the paper's introduction database (two orders, one payment whose
// order id is a marked null) as the fixture. Also covers request
// validation, the four input forms, and error propagation from the
// evaluators (bad division arity, kMaybe on RA input, guard refusals).

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "algebra/parser.h"
#include "engine/query_engine.h"
#include "sql/parser.h"

namespace incdb {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() {
    Schema schema;
    EXPECT_TRUE(schema.AddRelation("Ord", {"o_id", "product"}).ok());
    EXPECT_TRUE(
        schema.AddRelation("Pay", {"p_id", "order_id", "amount"}).ok());
    db_ = Database(schema);
    db_.AddTuple("Ord", Tuple{Value::Str("oid1"), Value::Str("pr1")});
    db_.AddTuple("Ord", Tuple{Value::Str("oid2"), Value::Str("pr2")});
    db_.AddTuple("Pay",
                 Tuple{Value::Str("pid1"), Value::Null(0), Value::Int(100)});
  }

  QueryRequest Sql(const std::string& text, AnswerNotion notion) const {
    return QueryRequestBuilder(QueryInput::SqlText(text))
        .Notion(notion)
        .Build();
  }

  Database db_;
};

// The unpaid-orders query of the paper's introduction.
constexpr char kUnpaid[] =
    "SELECT o_id FROM Ord WHERE o_id NOT IN (SELECT order_id FROM Pay)";
// The positive join: products that were certainly paid for.
constexpr char kPaidProducts[] =
    "SELECT product FROM Ord, Pay WHERE o_id = order_id";

TEST_F(QueryEngineTest, ThreeValuedLogicReproducesTheAnomaly) {
  QueryEngine engine(db_);
  auto resp = engine.Run(Sql(kUnpaid, AnswerNotion::k3VL));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->relation.size(), 0u);  // "nobody to chase" — the anomaly
}

TEST_F(QueryEngineTest, NaiveKeepsBothCandidates) {
  QueryEngine engine(db_);
  auto resp = engine.Run(Sql(kUnpaid, AnswerNotion::kNaive));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->relation.size(), 2u);  // ⊥ matches neither order id
}

TEST_F(QueryEngineTest, MaybeComplementsThreeValuedLogic) {
  QueryEngine engine(db_);
  auto sure = engine.Run(Sql(kUnpaid, AnswerNotion::k3VL));
  auto maybe = engine.Run(Sql(kUnpaid, AnswerNotion::kMaybe));
  ASSERT_TRUE(sure.ok());
  ASSERT_TRUE(maybe.ok());
  // Both orders are UNKNOWN-unpaid: MAYBE returns them, 3VL returns none.
  EXPECT_EQ(maybe->relation.size(), 2u);
  EXPECT_EQ(sure->relation.size() + maybe->relation.size(), 2u);
}

TEST_F(QueryEngineTest, CertainNaiveIsGuardedAndCorrect) {
  QueryEngine engine(db_);
  auto resp = engine.Run(Sql(kPaidProducts, AnswerNotion::kCertainNaive));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  // The lost order id could be either order: nothing is certain.
  EXPECT_EQ(resp->relation.size(), 0u);

  // The non-positive NOT IN query is outside the guaranteed fragment…
  auto refused = engine.Run(Sql(kUnpaid, AnswerNotion::kCertainNaive));
  EXPECT_FALSE(refused.ok());
  // …unless forced, which runs but carries no guarantee.
  QueryRequest forced = Sql(kUnpaid, AnswerNotion::kCertainNaive);
  forced.force = true;
  auto anyway = engine.Run(forced);
  ASSERT_TRUE(anyway.ok()) << anyway.status().ToString();
  EXPECT_FALSE(anyway->naive_guarantee);
}

TEST_F(QueryEngineTest, CertainEnumMatchesCertainNaiveOnPositiveQueries) {
  QueryEngine engine(db_);
  for (auto sem :
       {WorldSemantics::kOpenWorld, WorldSemantics::kClosedWorld}) {
    QueryRequest naive = Sql(kPaidProducts, AnswerNotion::kCertainNaive);
    naive.semantics = sem;
    QueryRequest enumd = Sql(kPaidProducts, AnswerNotion::kCertainEnum);
    enumd.semantics = sem;
    auto a = engine.Run(naive);
    auto b = engine.Run(enumd);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->relation, b->relation);
  }
}

TEST_F(QueryEngineTest, CertainObjectKeepsPartialTuples) {
  QueryEngine engine(db_);
  QueryRequest req;
  req.input = QueryInput::RaText("Pay");
  req.notion = AnswerNotion::kCertainObject;
  auto resp = engine.Run(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  // certainO(Q, D) = Q(D): the null-carrying payment tuple survives.
  EXPECT_EQ(resp->relation.size(), 1u);
  EXPECT_TRUE(resp->relation.tuples()[0].HasNull());
}

TEST_F(QueryEngineTest, PossibleAnswersCoverEveryWorldsOutput) {
  QueryEngine engine(db_);
  QueryRequest req = Sql(kUnpaid, AnswerNotion::kPossible);
  auto possible = engine.Run(req);
  ASSERT_TRUE(possible.ok()) << possible.status().ToString();
  // In some world each order is unpaid, so both ids are possible answers.
  EXPECT_GE(possible->relation.size(), 2u);
}

TEST_F(QueryEngineTest, AllNotionsHaveNamesAndRunOnSql) {
  QueryEngine engine(db_);
  for (AnswerNotion n :
       {AnswerNotion::kNaive, AnswerNotion::k3VL, AnswerNotion::kMaybe,
        AnswerNotion::kCertainNaive, AnswerNotion::kCertainEnum,
        AnswerNotion::kCertainObject, AnswerNotion::kPossible}) {
    EXPECT_STRNE(AnswerNotionName(n), "");
    auto resp = engine.Run(Sql(kPaidProducts, n));
    EXPECT_TRUE(resp.ok()) << AnswerNotionName(n) << ": "
                           << resp.status().ToString();
  }
}

TEST_F(QueryEngineTest, RaInputsRunEveryNotionExceptMaybe) {
  QueryEngine engine(db_);
  // π_{product}(σ_{o_id = order_id}(Ord × Pay)) — as a pre-built AST.
  auto ra = RAExpr::Project(
      {1}, RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Column(3)),
                          RAExpr::Product(RAExpr::Scan("Ord"),
                                          RAExpr::Scan("Pay"))));
  for (AnswerNotion n :
       {AnswerNotion::kNaive, AnswerNotion::k3VL, AnswerNotion::kCertainNaive,
        AnswerNotion::kCertainEnum, AnswerNotion::kCertainObject,
        AnswerNotion::kPossible}) {
    QueryRequest req;
    req.input = QueryInput::Ra(ra);
    req.notion = n;
    auto resp = engine.Run(req);
    EXPECT_TRUE(resp.ok()) << AnswerNotionName(n) << ": "
                           << resp.status().ToString();
  }
  // Codd's MAYBE is defined on SQL's 3VL WHERE, not on RA.
  QueryRequest maybe;
  maybe.input = QueryInput::Ra(ra);
  maybe.notion = AnswerNotion::kMaybe;
  auto resp = engine.Run(maybe);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnsupported);
}

TEST_F(QueryEngineTest, ClassifiesAndReportsNaiveGuarantee) {
  QueryEngine engine(db_);
  auto positive = engine.Run(Sql(kPaidProducts, AnswerNotion::kCertainNaive));
  ASSERT_TRUE(positive.ok());
  ASSERT_TRUE(positive->fragment.has_value());
  EXPECT_TRUE(positive->naive_guarantee);
}

TEST_F(QueryEngineTest, StatsAreAlwaysCollected) {
  QueryEngine engine(db_);
  auto resp = engine.Run(Sql(kPaidProducts, AnswerNotion::kNaive));
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(resp->stats.TotalTuplesIn(), 0u);
  // The caller's own sink, when provided, receives a merged copy.
  EvalStats mine;
  QueryRequest req = Sql(kPaidProducts, AnswerNotion::kNaive);
  req.eval.stats = &mine;
  ASSERT_TRUE(engine.Run(req).ok());
  EXPECT_GT(mine.TotalTuplesIn(), 0u);
}

TEST_F(QueryEngineTest, RejectsEmptyInput) {
  QueryEngine engine(db_);
  QueryRequest none;
  auto r0 = engine.Run(none);
  EXPECT_FALSE(r0.ok());
  EXPECT_EQ(r0.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryEngineTest, AllFourTypedInputFormsAnswerIdentically) {
  QueryEngine engine(db_);
  const char* ra_text = "proj{1}(sel[#0 = #3](Ord x Pay))";
  auto parsed_ra = ParseRA(ra_text);
  ASSERT_TRUE(parsed_ra.ok());
  auto parsed_sql = ParseSql(kPaidProducts);
  ASSERT_TRUE(parsed_sql.ok());

  const QueryInput forms[] = {
      QueryInput::RaText(ra_text),
      QueryInput::SqlText(kPaidProducts),
      QueryInput::Ra(*parsed_ra),
      QueryInput::Sql(std::make_shared<SqlQuery>(*std::move(parsed_sql))),
  };
  std::optional<Relation> first;
  for (const QueryInput& input : forms) {
    auto resp = engine.Run(QueryRequestBuilder(input)
                               .Notion(AnswerNotion::kCertainEnum)
                               .Build());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (!first) {
      first = resp->relation;
    } else {
      EXPECT_EQ(resp->relation, *first);
    }
  }
}

TEST_F(QueryEngineTest, CTableBackendIsBitIdenticalOnBothNotions) {
  QueryEngine engine(db_);
  for (const char* sql : {kUnpaid, kPaidProducts}) {
    for (AnswerNotion notion :
         {AnswerNotion::kCertainEnum, AnswerNotion::kPossible}) {
      auto en = engine.Run(Sql(sql, notion));
      QueryRequest ct_req = Sql(sql, notion);
      ct_req.backend = Backend::kCTable;
      auto ct = engine.Run(ct_req);
      ASSERT_TRUE(en.ok()) << en.status().ToString();
      ASSERT_TRUE(ct.ok()) << ct.status().ToString();
      EXPECT_EQ(en->relation, ct->relation)
          << AnswerNotionName(notion) << ": " << sql;
      EXPECT_EQ(en->backend, Backend::kEnumeration);
      EXPECT_EQ(ct->backend, Backend::kCTable);
      // Both responses expose the same classification metadata.
      EXPECT_EQ(en->fragment, ct->fragment);
      EXPECT_NE(ct->optimized_plan, nullptr);
    }
  }
}

TEST_F(QueryEngineTest, CTableBackendRefusesNonWorldQuantifiedNotions) {
  QueryEngine engine(db_);
  QueryRequest req = Sql(kPaidProducts, AnswerNotion::kNaive);
  req.backend = Backend::kCTable;
  auto resp = engine.Run(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnsupported);
}

TEST_F(QueryEngineTest, BuilderComposesAllKnobs) {
  QueryEngine engine(db_);
  WorldEnumOptions worlds;
  worlds.fresh_constants = 1;
  EvalOptions eval;
  eval.num_threads = 1;
  auto resp =
      engine.Run(QueryRequestBuilder(QueryInput::SqlText(kPaidProducts))
                     .Notion(AnswerNotion::kCertainEnum)
                     .Semantics(WorldSemantics::kClosedWorld)
                     .OnBackend(Backend::kCTable)
                     .Worlds(worlds)
                     .Eval(eval)
                     .Build());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->backend, Backend::kCTable);
  // The normalizer counters surface on the response (mirroring stats).
  EXPECT_EQ(resp->cond_simplified, resp->stats.cond_simplified());
  EXPECT_EQ(resp->unsat_pruned, resp->stats.unsat_pruned());
}

TEST_F(QueryEngineTest, ParseErrorsSurfaceFromBothParsers) {
  QueryEngine engine(db_);
  QueryRequest bad_ra;
  bad_ra.input = QueryInput::RaText("proj{0}(");
  EXPECT_FALSE(engine.Run(bad_ra).ok());

  QueryRequest bad_sql;
  bad_sql.input = QueryInput::SqlText("SELECT FROM WHERE");
  EXPECT_FALSE(engine.Run(bad_sql).ok());
}

TEST_F(QueryEngineTest, BadDivisionArityIsAnErrorNotACrash) {
  QueryEngine engine(db_);
  // Ord ÷ Pay: arity(divisor) = 3 > arity(dividend) = 2. Once this
  // aborted the process; now it must come back as InvalidArgument.
  QueryRequest req;
  req.input =
      QueryInput::Ra(RAExpr::Divide(RAExpr::Scan("Ord"), RAExpr::Scan("Pay")));
  req.notion = AnswerNotion::kNaive;
  auto resp = engine.Run(req);
  EXPECT_FALSE(resp.ok());
}

TEST_F(QueryEngineTest, PrebuiltSqlAstInputWorks) {
  QueryEngine engine(db_);
  auto parsed = ParseSql(kPaidProducts);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  QueryRequest req;
  req.input = QueryInput::Sql(std::make_shared<SqlQuery>(*std::move(parsed)));
  req.notion = AnswerNotion::k3VL;
  auto resp = engine.Run(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->relation.size(), 0u);
}

}  // namespace
}  // namespace incdb
