// SQL aggregates with nulls: the standard's null-ignoring semantics (a
// further family of anomalies), GROUP BY null collapsing, and certain
// aggregate intervals.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

#include "core/possible_worlds.h"
#include "sql/aggregate_bounds.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/rewrite.h"
#include "util/random.h"

namespace incdb {
namespace {

Database SalaryDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("Emp", {"id", "dept", "salary"}).ok());
  Database db(schema);
  db.AddTuple("Emp", Tuple{Value::Int(1), Value::Str("eng"), Value::Int(100)});
  db.AddTuple("Emp", Tuple{Value::Int(2), Value::Str("eng"), Value::Null(0)});
  db.AddTuple("Emp", Tuple{Value::Int(3), Value::Str("ops"), Value::Int(80)});
  return db;
}

TEST(SqlAggregateTest, CountStarVsCountColumn) {
  Database db = SalaryDb();
  auto star = EvalSql("SELECT COUNT(*) FROM Emp", db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(star.ok()) << star.status().ToString();
  EXPECT_TRUE(star->Contains(Tuple{Value::Int(3)}));

  // COUNT(salary) ignores the null — the classic under-report: in EVERY
  // possible world there are 3 salaries.
  auto col = EvalSql("SELECT COUNT(salary) FROM Emp", db,
                     SqlEvalMode::kSql3VL);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(col->Contains(Tuple{Value::Int(2)}));
}

TEST(SqlAggregateTest, SumIgnoresNulls) {
  Database db = SalaryDb();
  auto sum = EvalSql("SELECT SUM(salary) FROM Emp", db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(sum->Contains(Tuple{Value::Int(180)}));
  auto avg = EvalSql("SELECT AVG(salary) FROM Emp", db, SqlEvalMode::kSql3VL);
  ASSERT_TRUE(avg.ok());
  EXPECT_TRUE(avg->Contains(Tuple{Value::Int(90)}));
  auto mn = EvalSql("SELECT MIN(salary), MAX(salary) FROM Emp", db,
                    SqlEvalMode::kSql3VL);
  ASSERT_TRUE(mn.ok());
  EXPECT_TRUE(mn->Contains(Tuple{Value::Int(80), Value::Int(100)}));
}

TEST(SqlAggregateTest, EmptyInputYieldsNullOrZero) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("T", {"v"}).ok());
  Database db(schema);
  auto r = EvalSql("SELECT COUNT(*), COUNT(v), SUM(v) FROM T", db,
                   SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  const Tuple& t = r->tuples()[0];
  EXPECT_EQ(t[0], Value::Int(0));
  EXPECT_EQ(t[1], Value::Int(0));
  EXPECT_TRUE(t[2].is_null());  // SUM of nothing is NULL
}

TEST(SqlAggregateTest, GroupByBasics) {
  Database db = SalaryDb();
  auto r = EvalSql(
      "SELECT dept, COUNT(*) FROM Emp GROUP BY dept", db,
      SqlEvalMode::kSql3VL);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Str("eng"), Value::Int(2)}));
  EXPECT_TRUE(r->Contains(Tuple{Value::Str("ops"), Value::Int(1)}));
}

TEST(SqlAggregateTest, GroupByCollapsesNullsIn3VL) {
  // SQL: all NULLs form ONE group, although no null equals another in
  // comparisons — an inconsistency the paper's framework avoids by
  // tracking marked nulls.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("T", {"k", "v"}).ok());
  Database db(schema);
  db.AddTuple("T", Tuple{Value::Null(0), Value::Int(1)});
  db.AddTuple("T", Tuple{Value::Null(1), Value::Int(2)});
  db.AddTuple("T", Tuple{Value::Int(9), Value::Int(3)});

  auto sql = EvalSql("SELECT k, COUNT(*) FROM T GROUP BY k", db,
                     SqlEvalMode::kSql3VL);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(sql->size(), 2u);  // {null-group: 2, 9: 1}
  EXPECT_TRUE(sql->Contains(Tuple{Value::Null(0), Value::Int(2)}));

  // Naïve mode distinguishes the marked nulls: three groups.
  auto naive = EvalSql("SELECT k, COUNT(*) FROM T GROUP BY k", db,
                       SqlEvalMode::kNaive);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->size(), 3u);
}

TEST(SqlAggregateTest, NonGroupedColumnRejected) {
  Database db = SalaryDb();
  auto r = EvalSql("SELECT dept, COUNT(*) FROM Emp", db,
                   SqlEvalMode::kSql3VL);
  EXPECT_FALSE(r.ok());
  auto r2 = EvalSql("SELECT id, COUNT(*) FROM Emp GROUP BY dept", db,
                    SqlEvalMode::kSql3VL);
  EXPECT_FALSE(r2.ok());
}

TEST(SqlAggregateTest, NaiveModeRefusesSummingMarkedNulls) {
  Database db = SalaryDb();
  auto r = EvalSql("SELECT SUM(salary) FROM Emp", db, SqlEvalMode::kNaive);
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  // COUNT is fine naively.
  auto c = EvalSql("SELECT COUNT(*) FROM Emp", db, SqlEvalMode::kNaive);
  EXPECT_TRUE(c.ok());
}

TEST(SqlAggregateTest, AggregatesAreNotPositive) {
  // Certain-answer shortcut must refuse aggregates.
  Database db = SalaryDb();
  auto parsed = ParseSql("SELECT COUNT(*) FROM Emp");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(IsPositiveSqlQuery(*parsed));
}

TEST(SqlAggregateTest, SumAndAvgOverflowIsAnError) {
  // Two INT64_MAX amounts: their sum leaves int64, so SUM and AVG refuse
  // instead of answering a wrapped value.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("Pay", {"p_id", "amount"}).ok());
  Database db(schema);
  db.AddTuple("Pay", Tuple{Value::Int(1), Value::Int(INT64_MAX)});
  db.AddTuple("Pay", Tuple{Value::Int(2), Value::Int(INT64_MAX)});
  for (const char* sql :
       {"SELECT SUM(amount) FROM Pay", "SELECT AVG(amount) FROM Pay"}) {
    for (auto mode : {SqlEvalMode::kSql3VL, SqlEvalMode::kNaive}) {
      auto r = EvalSql(sql, db, mode);
      ASSERT_FALSE(r.ok()) << sql << " answered " << r->ToString();
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    }
  }

  // At the edge without overflow: INT64_MAX + INT64_MIN = -1.
  Database edge(schema);
  edge.AddTuple("Pay", Tuple{Value::Int(1), Value::Int(INT64_MAX)});
  edge.AddTuple("Pay", Tuple{Value::Int(2), Value::Int(INT64_MIN)});
  auto sum = EvalSql("SELECT SUM(amount) FROM Pay", edge,
                     SqlEvalMode::kSql3VL);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_TRUE(sum->Contains(Tuple{Value::Int(-1)})) << sum->ToString();
}

TEST(AggIntervalTest, CountIsExact) {
  std::vector<Value> col = {Value::Int(1), Value::Null(0), Value::Null(1)};
  auto c = CertainAggregateInterval(col, AggFunc::kCount);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->IsExact());
  EXPECT_EQ(*c->lo, 3);
}

TEST(AggIntervalTest, SumBounds) {
  std::vector<Value> col = {Value::Int(100), Value::Null(0), Value::Int(80)};
  // Unconstrained nulls: unbounded both sides.
  auto open = CertainAggregateInterval(col, AggFunc::kSum);
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(open->lo.has_value());
  EXPECT_FALSE(open->hi.has_value());
  // Salary domain [0, 200].
  NullDomain dom{0, 200};
  auto bounded = CertainAggregateInterval(col, AggFunc::kSum, dom);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(*bounded->lo, 180);
  EXPECT_EQ(*bounded->hi, 380);
}

TEST(AggIntervalTest, MinMaxBounds) {
  std::vector<Value> col = {Value::Int(100), Value::Null(0), Value::Int(80)};
  NullDomain dom{0, 200};
  auto mn = CertainAggregateInterval(col, AggFunc::kMin, dom);
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ(*mn->lo, 0);
  EXPECT_EQ(*mn->hi, 80);  // min can never exceed the constant 80
  auto mx = CertainAggregateInterval(col, AggFunc::kMax, dom);
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(*mx->lo, 100);
  EXPECT_EQ(*mx->hi, 200);
}

TEST(AggIntervalTest, NoNullsIsExact) {
  std::vector<Value> col = {Value::Int(3), Value::Int(5)};
  for (AggFunc f : {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax,
                    AggFunc::kAvg}) {
    auto r = CertainAggregateInterval(col, f);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->IsExact());
  }
}

TEST(AggIntervalTest, ErrorsOnEmptyAndStrings) {
  EXPECT_FALSE(CertainAggregateInterval({}, AggFunc::kSum).ok());
  EXPECT_TRUE(CertainAggregateInterval({}, AggFunc::kCount).ok());
  EXPECT_FALSE(
      CertainAggregateInterval({Value::Str("x")}, AggFunc::kMin).ok());
}

// Property: the interval contains the aggregate of every world.
class AggIntervalSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggIntervalSweep, IntervalContainsEveryWorldValue) {
  Rng rng(GetParam());
  std::vector<Value> col;
  NullId next = 0;
  const size_t n = 2 + rng.Uniform(3);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.4)) {
      col.push_back(Value::Null(next++));
    } else {
      col.push_back(Value::Int(rng.UniformInt(0, 9)));
    }
  }
  NullDomain dom{0, 9};

  // Enumerate worlds of the column.
  Database db;
  Relation* r = db.MutableRelation("C", 2);
  for (size_t i = 0; i < col.size(); ++i) {
    // Tag each row with its index so set semantics cannot merge rows.
    r->Add(Tuple{Value::Int(static_cast<int64_t>(i)), col[i]});
  }
  WorldEnumOptions opts;
  opts.fresh_constants = 0;
  std::vector<Value> req;
  for (int64_t v = 0; v <= 9; ++v) req.push_back(Value::Int(v));
  opts.required_constants = req;

  for (AggFunc f : {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax,
                    AggFunc::kAvg, AggFunc::kCount}) {
    auto interval = CertainAggregateInterval(col, f, dom);
    ASSERT_TRUE(interval.ok());
    Status st = ForEachWorldCwa(db, opts, [&](const Database& w) {
      // Recover the column from the tagged rows.
      int64_t sum = 0, mn = INT64_MAX, mx = INT64_MIN, count = 0;
      for (const Tuple& t : w.GetRelation("C").tuples()) {
        const int64_t v = t[1].as_int();
        sum += v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        ++count;
      }
      int64_t val = 0;
      switch (f) {
        case AggFunc::kSum:
          val = sum;
          break;
        case AggFunc::kMin:
          val = mn;
          break;
        case AggFunc::kMax:
          val = mx;
          break;
        case AggFunc::kAvg:
          val = sum / count;
          break;
        default:
          val = count;
          break;
      }
      EXPECT_TRUE(interval->Contains(val))
          << AggFuncName(f) << " " << val << " outside "
          << interval->ToString();
      return true;
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AggIntervalSweep,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace incdb
