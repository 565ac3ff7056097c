// Codd's MAYBE evaluation (1979): rows whose condition is UNKNOWN. Together
// with the standard TRUE rows these are the possible answers — SQL shipped
// the TRUE half only, which is how the paper's anomalies became invisible.

#include <gtest/gtest.h>

#include "core/possible_worlds.h"
#include "sql/eval.h"

namespace incdb {
namespace {

Database Db() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"a"}).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(10)});
  db.AddTuple("R", Tuple{Value::Int(2), Value::Null(0)});
  db.AddTuple("R", Tuple{Value::Int(3), Value::Int(30)});
  return db;
}

TEST(SqlMaybeTest, MaybeRowsAreTheUnknownOnes) {
  Database db = Db();
  const std::string q = "SELECT a FROM R WHERE b = 10";
  auto sure = EvalSql(q, db, SqlEvalMode::kSql3VL);
  auto maybe = EvalSql(q, db, SqlEvalMode::kSqlMaybe);
  ASSERT_TRUE(sure.ok());
  ASSERT_TRUE(maybe.ok());
  EXPECT_EQ(sure->size(), 1u);
  EXPECT_TRUE(sure->Contains(Tuple{Value::Int(1)}));
  EXPECT_EQ(maybe->size(), 1u);
  EXPECT_TRUE(maybe->Contains(Tuple{Value::Int(2)}));
}

TEST(SqlMaybeTest, NoWhereMeansNothingIsInDoubt) {
  Database db = Db();
  auto maybe = EvalSql("SELECT a FROM R", db, SqlEvalMode::kSqlMaybe);
  ASSERT_TRUE(maybe.ok());
  EXPECT_TRUE(maybe->empty());
}

TEST(SqlMaybeTest, TruePlusMaybeCoversPossibleAnswers) {
  // For this selection query, TRUE ∪ MAYBE equals the possible answers by
  // world enumeration.
  Database db = Db();
  const std::string q = "SELECT a FROM R WHERE b = 10";
  auto sure = EvalSql(q, db, SqlEvalMode::kSql3VL);
  auto maybe = EvalSql(q, db, SqlEvalMode::kSqlMaybe);
  ASSERT_TRUE(sure.ok());
  ASSERT_TRUE(maybe.ok());
  Relation possible_sql = *sure;
  possible_sql.AddAll(*maybe);

  Relation possible_enum(1);
  WorldEnumOptions opts;
  opts.required_constants = {Value::Int(10)};
  Status st = ForEachWorldCwa(db, opts, [&](const Database& w) {
    for (const Tuple& t : w.GetRelation("R").tuples()) {
      if (t[1] == Value::Int(10)) possible_enum.Add(Tuple{t[0]});
    }
    return true;
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(possible_sql, possible_enum);
}

TEST(SqlMaybeTest, MaybeWithNotIn) {
  // The introduction's NOT IN query: 3VL gives {}, MAYBE recovers both
  // candidate unpaid orders — exactly the information SQL throws away.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("Ord", {"o_id"}).ok());
  ASSERT_TRUE(schema.AddRelation("Pay", {"order_id"}).ok());
  Database db(schema);
  db.AddTuple("Ord", Tuple{Value::Int(1)});
  db.AddTuple("Ord", Tuple{Value::Int(2)});
  db.AddTuple("Pay", Tuple{Value::Null(0)});

  const std::string q =
      "SELECT o_id FROM Ord WHERE o_id NOT IN (SELECT order_id FROM Pay)";
  auto sure = EvalSql(q, db, SqlEvalMode::kSql3VL);
  auto maybe = EvalSql(q, db, SqlEvalMode::kSqlMaybe);
  ASSERT_TRUE(sure.ok());
  ASSERT_TRUE(maybe.ok());
  EXPECT_TRUE(sure->empty());
  EXPECT_EQ(maybe->size(), 2u);
}

TEST(SqlMaybeTest, SubqueriesStayThreeValuedTrue) {
  // The MAYBE filter applies to the top level only; the IN subquery below
  // still returns its TRUE rows.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", {"a"}).ok());
  ASSERT_TRUE(schema.AddRelation("S", {"a", "flag"}).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("S", Tuple{Value::Int(2), Value::Null(1)});

  // Subquery selects S.a where flag = 1: TRUE rows only -> {1}.
  // Top level: ⊥ IN {1} is UNKNOWN -> the R row is a maybe-answer.
  auto maybe = EvalSql(
      "SELECT a FROM R WHERE a IN (SELECT a FROM S WHERE flag = 1)", db,
      SqlEvalMode::kSqlMaybe);
  ASSERT_TRUE(maybe.ok()) << maybe.status().ToString();
  EXPECT_EQ(maybe->size(), 1u);
}

TEST(SqlMaybeTest, CompleteDataHasNoMaybes) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", {"a"}).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Int(1)});
  auto maybe =
      EvalSql("SELECT a FROM R WHERE a = 1", db, SqlEvalMode::kSqlMaybe);
  ASSERT_TRUE(maybe.ok());
  EXPECT_TRUE(maybe->empty());
}

TEST(SqlMaybeTest, GroupByPutsEveryNullInOneGroup) {
  // MAYBE, like 3VL, treats SQL nulls as indistinguishable: one group for
  // all of them. Only naïve mode groups marked nulls by identity.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Int(1), Value::Null(1)});
  db.AddTuple("R", Tuple{Value::Int(2), Value::Null(2)});
  db.AddTuple("R", Tuple{Value::Int(3), Value::Int(7)});
  const std::string q = "SELECT b, COUNT(*) FROM R GROUP BY b";
  Relation one_group(2);
  one_group.Add(Tuple{Value::Null(0), Value::Int(2)});
  one_group.Add(Tuple{Value::Int(7), Value::Int(1)});
  Relation by_identity(2);
  by_identity.Add(Tuple{Value::Null(1), Value::Int(1)});
  by_identity.Add(Tuple{Value::Null(2), Value::Int(1)});
  by_identity.Add(Tuple{Value::Int(7), Value::Int(1)});
  for (bool code_path : {true, false}) {
    auto eval = [&](SqlEvalMode mode) {
      return code_path ? EvalSql(q, db, mode) : EvalSqlReference(q, db, mode);
    };
    for (auto mode : {SqlEvalMode::kSql3VL, SqlEvalMode::kSqlMaybe}) {
      auto r = eval(mode);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r, one_group) << "mode " << static_cast<int>(mode);
    }
    auto naive = eval(SqlEvalMode::kNaive);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    EXPECT_EQ(*naive, by_identity);
  }
}

}  // namespace
}  // namespace incdb
