#include "sql/eval.h"

#include <gtest/gtest.h>

#include "sql/rewrite.h"

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

TEST(SqlEvalTest, BadColumnReferencesFailWhateverTheData) {
  // Columns resolve when the query is planned, before any row is read, so
  // an empty instance refuses the same queries as a non-empty one, on the
  // code path and on the reference.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  ASSERT_TRUE(schema.AddRelation("S", {"c"}).ok());
  Database empty(schema);
  Database full(schema);
  full.AddTuple("R", Tuple{Value::Int(1), Value::Int(2)});
  full.AddTuple("S", Tuple{Value::Int(1)});
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SELECT nosuch FROM R", "unresolved column nosuch"},
      {"SELECT a FROM R WHERE nosuch = 1", "unresolved column nosuch"},
      {"SELECT X.a FROM R", "unresolved column X.a"},
      {"SELECT R.nosuch FROM R", "column nosuch not in table R"},
      {"SELECT c FROM S WHERE c IN (SELECT nosuch FROM R)",
       "unresolved column nosuch"},
      {"SELECT c FROM S WHERE EXISTS (SELECT a FROM R WHERE a = 1 AND "
       "b = nosuch)",
       "unresolved column nosuch"},
      {"SELECT a, COUNT(nosuch) FROM R GROUP BY a",
       "unresolved column nosuch"},
  };
  for (const Database* db : {&empty, &full}) {
    for (bool code_path : {true, false}) {
      for (const auto& [sql, message] : cases) {
        for (auto mode : {SqlEvalMode::kSql3VL, SqlEvalMode::kNaive,
                          SqlEvalMode::kSqlMaybe}) {
          auto r = code_path ? EvalSql(sql, *db, mode)
                             : EvalSqlReference(sql, *db, mode);
          ASSERT_FALSE(r.ok()) << sql << " answered " << r->ToString();
          EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << sql;
          EXPECT_EQ(r.status().message(), message) << sql;
        }
      }
    }
  }
  // The widths of IN subqueries and UNION members are checked the same way.
  for (const Database* db : {&empty, &full}) {
    for (const char* sql :
         {"SELECT c FROM S WHERE c IN (SELECT a, b FROM R)",
          "SELECT c FROM S UNION SELECT a, b FROM R",
          "SELECT c FROM S WHERE EXISTS (SELECT a FROM R WHERE a IN "
          "(SELECT * FROM R))"}) {
      auto r = EvalSql(sql, *db, SqlEvalMode::kSql3VL);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    }
  }
}

TEST(SqlEvalTest, BlockPastUint32RowsIsResourceExhausted) {
  // 300^4 rows pass UINT32_MAX: refused before any row is emitted, on both
  // paths. A MAYBE block without WHERE keeps nothing and reads no row.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", {"a"}).ok());
  Database db(schema);
  for (int64_t i = 0; i < 300; ++i) db.AddTuple("R", Tuple{Value::Int(i)});
  const std::string sql = "SELECT * FROM R, R X, R Y, R Z";
  for (bool code_path : {true, false}) {
    auto eval = [&](SqlEvalMode mode) {
      return code_path ? EvalSql(sql, db, mode)
                       : EvalSqlReference(sql, db, mode);
    };
    auto r = eval(SqlEvalMode::kSql3VL);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    auto maybe = eval(SqlEvalMode::kSqlMaybe);
    ASSERT_TRUE(maybe.ok()) << maybe.status().ToString();
    EXPECT_TRUE(maybe->empty());
  }
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
// (SELECT y FROM S)` in all three modes, on the served lookup and on the
// reference fold (EvalSqlReference).

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
    for (const InExpectation& c : cases) {
      for (bool negated : {false, true}) {
        const std::string sql =
            std::string("SELECT x FROM T WHERE x ") +
            (negated ? "NOT IN" : "IN") + " (SELECT y FROM S)";
        auto r = lookup ? EvalSql(sql, db, c.mode)
                        : EvalSqlReference(sql, db, c.mode);
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

// The kSqlBlock counters of the seven SQL shapes the e2e `sql_3vl`
// workload serves, pinned on a fixed instance: tuples_in sums the FROM
// relations' sizes per block entry, probes counts equi-probes and
// tuples_out the rows each entry emits (distinct rows; the collected rows
// of an aggregate block). The reference counts the same except probes.
TEST(SqlBlockStatsTest, PinsTheServedShapes) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("Order", {"o_id", "product"}).ok());
  ASSERT_TRUE(
      schema.AddRelation("Pay", {"p_id", "order_id", "amount"}).ok());
  Database db(schema);
  for (int64_t o = 1; o <= 6; ++o) {
    db.AddTuple("Order",
                Tuple{Value::Int(o), Value::Str("p" + std::to_string(o))});
  }
  auto pay = [&](int64_t p, Value order, int64_t amount) {
    db.AddTuple("Pay", Tuple{Value::Int(p), std::move(order),
                             Value::Int(amount)});
  };
  pay(1, Value::Int(1), 95);
  pay(2, Value::Int(2), 40);
  pay(3, Value::Null(0), 99);
  pay(4, Value::Int(4), 91);
  pay(5, Value::Int(5), 20);

  const std::string not_in =
      "SELECT o_id FROM Order WHERE o_id NOT IN (SELECT order_id FROM Pay)";
  struct Shape {
    std::string sql;
    int mode;  // a SqlEvalMode, or -1 for EvalSqlCertain
    uint64_t calls, in, out, probes;
  };
  const std::vector<Shape> shapes = {
      {not_in, static_cast<int>(SqlEvalMode::kSql3VL), 2, 11, 5, 0},
      {not_in, static_cast<int>(SqlEvalMode::kNaive), 2, 11, 7, 0},
      {not_in, static_cast<int>(SqlEvalMode::kSqlMaybe), 2, 11, 7, 0},
      {"SELECT o_id FROM Order WHERE o_id IN (SELECT order_id FROM Pay)", -1,
       2, 11, 9, 0},
      // One outer entry and one correlated entry per order, each probing
      // Pay by order_id once.
      {"SELECT o_id, product FROM Order WHERE EXISTS (SELECT p_id FROM Pay "
       "WHERE order_id = o_id AND amount > 90)",
       static_cast<int>(SqlEvalMode::kSql3VL), 7, 36, 4, 6},
      {"SELECT p_id FROM Pay WHERE amount > 95 OR order_id < 50",
       static_cast<int>(SqlEvalMode::kSql3VL), 1, 5, 5, 0},
      {"SELECT amount, COUNT(order_id) FROM Pay GROUP BY amount",
       static_cast<int>(SqlEvalMode::kSql3VL), 1, 5, 5, 0},
  };
  // The reference of the certain shape is EvalSqlCertain's own steps on
  // the tuple reference: naïve evaluation, then the null-free rows.
  auto reference = [&](const Shape& shape,
                       EvalStats* stats) -> Result<Relation> {
    if (shape.mode >= 0) {
      return EvalSqlReference(shape.sql, db,
                              static_cast<SqlEvalMode>(shape.mode), stats);
    }
    INCDB_ASSIGN_OR_RETURN(
        Relation naive,
        EvalSqlReference(shape.sql, db, SqlEvalMode::kNaive, stats));
    return naive.CompletePart();
  };
  for (bool code_path : {true, false}) {
    for (const Shape& shape : shapes) {
      EvalStats stats;
      EvalOptions options;
      options.stats = &stats;
      auto r = !code_path ? reference(shape, &stats)
               : shape.mode < 0
                   ? EvalSqlCertain(shape.sql, db, false, options)
                   : EvalSql(shape.sql, db,
                             static_cast<SqlEvalMode>(shape.mode), options);
      ASSERT_TRUE(r.ok()) << shape.sql << ": " << r.status().ToString();
      const OpCounters& block = stats.at(EvalOp::kSqlBlock);
      const std::string where =
          shape.sql + " (mode " + std::to_string(shape.mode) +
          (code_path ? ", code path)" : ", reference)");
      EXPECT_EQ(block.calls, shape.calls) << where;
      EXPECT_EQ(block.tuples_in, shape.in) << where;
      EXPECT_EQ(block.tuples_out, shape.out) << where;
      EXPECT_EQ(block.probes, code_path ? shape.probes : 0) << where;
    }
  }
}

}  // namespace
}  // namespace incdb
