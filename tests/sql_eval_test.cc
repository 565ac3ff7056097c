#include "sql/eval.h"

#include <gtest/gtest.h>

namespace incdb {
namespace {

Database EmpDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("Emp", {"id", "dept", "salary"}).ok());
  EXPECT_TRUE(schema.AddRelation("Dept", {"name", "city"}).ok());
  Database db(schema);
  db.AddTuple("Emp", Tuple{Value::Int(1), Value::Str("eng"), Value::Int(100)});
  db.AddTuple("Emp", Tuple{Value::Int(2), Value::Str("ops"), Value::Int(80)});
  db.AddTuple("Emp", Tuple{Value::Int(3), Value::Str("eng"), Value::Null(0)});
  db.AddTuple("Dept", Tuple{Value::Str("eng"), Value::Str("NYC")});
  db.AddTuple("Dept", Tuple{Value::Str("ops"), Value::Str("SF")});
  return db;
}

TEST(SqlEvalTest, SimpleSelection) {
  Database db = EmpDb();
  auto r = EvalSql("SELECT id FROM Emp WHERE dept = 'eng'", db,
                   SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST(SqlEvalTest, SelectStarConcatenatesColumns) {
  Database db = EmpDb();
  auto r = EvalSql("SELECT * FROM Dept", db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->arity(), 2u);
  EXPECT_EQ(r->size(), 2u);
}

TEST(SqlEvalTest, JoinViaWhere) {
  Database db = EmpDb();
  auto r = EvalSql(
      "SELECT id, city FROM Emp, Dept WHERE dept = name", db,
      SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 3u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Int(1), Value::Str("NYC")}));
}

TEST(SqlEvalTest, SelfJoinWithAliases) {
  Database db = EmpDb();
  auto r = EvalSql(
      "SELECT a.id, b.id FROM Emp a, Emp b "
      "WHERE a.dept = b.dept AND a.salary < b.salary",
      db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only (no pair in ops), eng: salary 100 vs ⊥ — unknown, dropped.
  EXPECT_TRUE(r->empty());
}

TEST(SqlEvalTest, ComparisonWithNullIsUnknownIn3VL) {
  Database db = EmpDb();
  auto low = EvalSql("SELECT id FROM Emp WHERE salary < 90", db,
                     SqlEvalMode::kSql3VL);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->size(), 1u);  // employee 2 only; 3's salary is unknown
  EXPECT_TRUE(low->Contains(Tuple{Value::Int(2)}));
}

TEST(SqlEvalTest, InSubquery) {
  Database db = EmpDb();
  auto r = EvalSql(
      "SELECT city FROM Dept WHERE name IN (SELECT dept FROM Emp "
      "WHERE salary = 100)",
      db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Str("NYC")}));
}

TEST(SqlEvalTest, CorrelatedExists) {
  Database db = EmpDb();
  // Departments with an employee earning exactly 80.
  auto r = EvalSql(
      "SELECT name FROM Dept WHERE EXISTS "
      "(SELECT id FROM Emp WHERE dept = name AND salary = 80)",
      db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Str("ops")}));
}

TEST(SqlEvalTest, IsNullFilters) {
  Database db = EmpDb();
  auto r = EvalSql("SELECT id FROM Emp WHERE salary IS NULL", db,
                   SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Int(3)}));
}

TEST(SqlEvalTest, UnionDeduplicates) {
  Database db = EmpDb();
  auto r = EvalSql(
      "SELECT dept FROM Emp UNION SELECT name FROM Dept", db,
      SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // {'eng', 'ops'}
}

TEST(SqlEvalTest, NaiveModeJoinsMarkedNulls) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", {"a"}).ok());
  ASSERT_TRUE(schema.AddRelation("S", {"a"}).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Null(1)});
  const std::string q = "SELECT R.a FROM R, S WHERE R.a = S.a";
  auto naive = EvalSql(q, db, SqlEvalMode::kNaive);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->size(), 1u);  // ⊥0 = ⊥0 only
  auto sql3vl = EvalSql(q, db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(sql3vl.ok());
  EXPECT_TRUE(sql3vl->empty());
}

TEST(SqlEvalTest, AmbiguousColumnPrefersInnerScope) {
  // Correlated subquery: unqualified column resolves inner-most first.
  Database db = EmpDb();
  auto r = EvalSql(
      "SELECT id FROM Emp WHERE dept IN (SELECT name FROM Dept WHERE "
      "city = 'NYC')",
      db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST(SqlEvalTest, ErrorsOnUnknownTableOrColumn) {
  Database db = EmpDb();
  EXPECT_FALSE(EvalSql("SELECT x FROM Nope", db, SqlEvalMode::kSql3VL).ok());
  EXPECT_FALSE(
      EvalSql("SELECT nope FROM Emp", db, SqlEvalMode::kSql3VL).ok());
  EXPECT_FALSE(EvalSql("SELECT id FROM Emp WHERE id IN (SELECT * FROM Dept)",
                       db, SqlEvalMode::kSql3VL)
                   .ok());  // subquery must have one column
}

TEST(SqlEvalTest, UnionArityMismatchRejected) {
  Database db = EmpDb();
  EXPECT_FALSE(
      EvalSql("SELECT id FROM Emp UNION SELECT name, city FROM Dept", db,
              SqlEvalMode::kSql3VL)
          .ok());
}

// --- x [NOT] IN (S) edge cases --------------------------------------------
//
// T(x) and S(y); each case asserts `SELECT x FROM T WHERE x [NOT] IN
// (SELECT y FROM S)` in all three modes, on the binary-search lookup and on
// the reference fold (use_hash_kernels off).

Database InDb(const std::vector<Value>& t, const std::vector<Value>& s) {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("T", {"x"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"y"}).ok());
  Database db(schema);
  for (const Value& v : t) db.AddTuple("T", Tuple{v});
  for (const Value& v : s) db.AddTuple("S", Tuple{v});
  return db;
}

Relation Column(const std::vector<Value>& xs) {
  Relation r(1);
  for (const Value& v : xs) r.Add(Tuple{v});
  return r;
}

struct InExpectation {
  SqlEvalMode mode;
  std::vector<Value> in;
  std::vector<Value> not_in;
};

void ExpectInAnswers(const Database& db,
                     const std::vector<InExpectation>& cases) {
  for (bool lookup : {true, false}) {
    EvalOptions options;
    options.use_hash_kernels = lookup;
    for (const InExpectation& c : cases) {
      for (bool negated : {false, true}) {
        const std::string sql =
            std::string("SELECT x FROM T WHERE x ") +
            (negated ? "NOT IN" : "IN") + " (SELECT y FROM S)";
        auto r = EvalSql(sql, db, c.mode, options);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        EXPECT_EQ(*r, Column(negated ? c.not_in : c.in))
            << sql << " (mode " << static_cast<int>(c.mode)
            << ", lookup " << lookup << ")\n" << db.ToString();
      }
    }
  }
}

TEST(SqlInSemanticsTest, EmptySubqueryKeepsEvenNullXUnderNotIn) {
  // x IN {} is FALSE for every x, a null one included.
  const Value n0 = Value::Null(0);
  Database db = InDb({Value::Int(1), n0}, {});
  ExpectInAnswers(db, {
                          {SqlEvalMode::kSql3VL, {}, {Value::Int(1), n0}},
                          {SqlEvalMode::kSqlMaybe, {}, {}},
                          {SqlEvalMode::kNaive, {}, {Value::Int(1), n0}},
                      });
}

TEST(SqlInSemanticsTest, NullXAgainstNonEmptySubqueryIsUnknown) {
  // 3VL drops the null row under both IN and NOT IN; MAYBE keeps it.
  const Value n0 = Value::Null(0);
  Database db = InDb({Value::Int(2), Value::Int(3), n0},
                     {Value::Int(1), Value::Int(2)});
  ExpectInAnswers(db, {
                          {SqlEvalMode::kSql3VL, {Value::Int(2)},
                           {Value::Int(3)}},
                          {SqlEvalMode::kSqlMaybe, {n0}, {n0}},
                          {SqlEvalMode::kNaive, {Value::Int(2)},
                           {Value::Int(3), n0}},
                      });
}

TEST(SqlInSemanticsTest, SubqueryOfOnlyNulls) {
  // Every comparison is UNKNOWN in 3VL; naïve mode matches ⊥1 by identity.
  const Value n1 = Value::Null(1);
  const Value n2 = Value::Null(2);
  Database db = InDb({Value::Int(1), n1}, {n1, n2});
  ExpectInAnswers(db, {
                          {SqlEvalMode::kSql3VL, {}, {}},
                          {SqlEvalMode::kSqlMaybe, {Value::Int(1), n1},
                           {Value::Int(1), n1}},
                          {SqlEvalMode::kNaive, {n1}, {Value::Int(1)}},
                      });
}

TEST(SqlInSemanticsTest, NaiveModeMatchesSharedMarkedNull) {
  // ⊥5 occurs in T and in S: the same unknown value, so ⊥5 IN S is TRUE
  // naïvely, and UNKNOWN in 3VL.
  const Value n5 = Value::Null(5);
  Database db = InDb({n5, Value::Int(7)}, {n5, Value::Int(8)});
  ExpectInAnswers(db, {
                          {SqlEvalMode::kSql3VL, {}, {}},
                          {SqlEvalMode::kSqlMaybe, {n5, Value::Int(7)},
                           {n5, Value::Int(7)}},
                          {SqlEvalMode::kNaive, {n5}, {Value::Int(7)}},
                      });
}

TEST(SqlEvalTest, UnnamedRelationRejectedByEveryBlockKind) {
  // Plain and aggregate blocks resolve FROM the same way, so both refuse a
  // relation declared without attribute names.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", 1).ok());
  Database db(schema);
  db.AddTuple("R", Tuple{Value::Int(1)});
  for (const char* sql : {"SELECT * FROM R", "SELECT COUNT(*) FROM R",
                          "SELECT a FROM R GROUP BY a"}) {
    auto r = EvalSql(sql, db, SqlEvalMode::kSql3VL);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(r.status().message(),
              "relation R has no attribute names; SQL access requires "
              "named attributes")
        << sql;
  }
}

}  // namespace
}  // namespace incdb
