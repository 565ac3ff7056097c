// Certain answers: naïve shortcut vs possible-world ground truth, including
// the paper's π_A(R − S) counterexample where naïve evaluation fails.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "algebra/certain.h"
#include "algebra/eval.h"
#include "ctables/ctable_algebra.h"
#include "testing/fuzz_gen.h"
#include "testing/oracle.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

TEST(CertainTest, NaiveMatchesEnumerationForUCQ) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Null(0)});
  db.AddTuple("R", Tuple{Value::Null(0), Value::Int(2)});
  db.AddTuple("S", Tuple{Value::Int(2)});
  // π_0(R) ∪ S — positive.
  auto q = RAExpr::Union(RAExpr::Project({0}, RAExpr::Scan("R")),
                         RAExpr::Scan("S"));

  for (auto sem :
       {WorldSemantics::kOpenWorld, WorldSemantics::kClosedWorld}) {
    auto naive = CertainAnswersNaive(q, db, sem);
    auto truth = CertainAnswersEnum(q, db, sem);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(*naive, *truth) << WorldSemanticsName(sem);
  }
}

TEST(CertainTest, PaperProjectionOfDifferenceCounterexample) {
  // R = {(1,⊥)}, S = {(1,⊥')}: naïve π_A(R−S) = {1}; certain answer = ∅
  // (valuations can make the tuples equal).
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Int(1), Value::Null(1)});
  auto q = RAExpr::Project({0},
                           RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S")));

  // The fragment guard refuses the naïve shortcut...
  EXPECT_FALSE(CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld).ok());
  // ...and forcing it gives the wrong (unsound) answer {1}.
  auto forced = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld,
                                    /*force=*/true);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->size(), 1u);
  // Ground truth: empty.
  auto truth = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(truth->empty());
}

TEST(CertainTest, CertainObjectKeepsNulls) {
  // Section 6: Q = identity on R = {(1,2),(2,⊥)}. certainO(Q,R) = R itself;
  // the intersection-based certain answer is only {(1,2)}.
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("R", Tuple{Value::Int(2), Value::Null(0)});
  auto q = RAExpr::Scan("R");

  auto obj = CertainObjectNaive(q, db);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj, db.GetRelation("R"));

  auto classical = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld);
  ASSERT_TRUE(classical.ok());
  EXPECT_EQ(classical->size(), 1u);
  EXPECT_TRUE(classical->Contains(Tuple{Value::Int(1), Value::Int(2)}));
}

TEST(CertainTest, RAcwaDivisionUnderCwa) {
  // Employees covering every project, with a null assignment: naïve
  // evaluation is correct under CWA for RA_cwa.
  Database db;
  db.AddTuple("Assign", Tuple{Value::Int(10), Value::Int(1)});
  db.AddTuple("Assign", Tuple{Value::Int(10), Value::Int(2)});
  db.AddTuple("Assign", Tuple{Value::Int(20), Value::Int(1)});
  db.AddTuple("Assign", Tuple{Value::Int(20), Value::Null(0)});
  db.AddTuple("Proj", Tuple{Value::Int(1)});
  db.AddTuple("Proj", Tuple{Value::Int(2)});
  auto q = RAExpr::Divide(RAExpr::Scan("Assign"), RAExpr::Scan("Proj"));

  auto naive = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  auto truth = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_EQ(*naive, *truth);
  // 10 certainly covers; 20 does not (⊥ might be 3).
  EXPECT_EQ(naive->size(), 1u);
  EXPECT_TRUE(naive->Contains(Tuple{Value::Int(10)}));

  // Under OWA the guard refuses (division is not monotone).
  EXPECT_FALSE(CertainAnswersNaive(q, db, WorldSemantics::kOpenWorld).ok());
}

TEST(CertainTest, EnumRejectsNonMonotoneUnderOwa) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1)});
  auto q = RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("R"));
  EXPECT_EQ(
      CertainAnswersEnum(q, db, WorldSemantics::kOpenWorld).status().code(),
      StatusCode::kUnsupported);
}

TEST(CertainTest, PossibleAnswersUnionWorlds) {
  Database db;
  db.AddTuple("R", Tuple{Value::Null(0)});
  WorldEnumOptions opts;
  opts.fresh_constants = 0;
  opts.required_constants = {Value::Int(1), Value::Int(2)};
  auto poss = PossibleAnswersEnum(RAExpr::Scan("R"), db, opts);
  ASSERT_TRUE(poss.ok());
  EXPECT_EQ(poss->size(), 2u);
}

TEST(CertainTest, EnumDriversAnswerQOfDWithoutNulls) {
  // A null-free database is its own single world, and an empty one also has
  // an empty world domain. Both drivers must return Q(D) at any thread
  // count.
  Database complete;
  complete.AddTuple("R", Tuple{Value::Int(1), Value::Int(2)});
  complete.AddTuple("R", Tuple{Value::Int(2), Value::Int(3)});
  Database empty;
  empty.MutableRelation("R", 2);
  ASSERT_TRUE(WorldDomain(empty, {}).empty());
  // π_0(R) − π_1(R): {1} on `complete`, ∅ on `empty`.
  auto q = RAExpr::Diff(RAExpr::Project({0}, RAExpr::Scan("R")),
                        RAExpr::Project({1}, RAExpr::Scan("R")));
  for (const Database* db : {&complete, &empty}) {
    auto want = EvalNaive(q, *db);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (int threads : {1, 4}) {
      EvalOptions options;
      options.num_threads = threads;
      auto certain = CertainAnswersEnum(q, *db, WorldSemantics::kClosedWorld,
                                        {}, options);
      auto possible = PossibleAnswersEnum(q, *db, {}, options);
      ASSERT_TRUE(certain.ok()) << certain.status().ToString();
      ASSERT_TRUE(possible.ok()) << possible.status().ToString();
      EXPECT_EQ(*certain, *want) << threads << " threads";
      EXPECT_EQ(*possible, *want) << threads << " threads";
    }
  }
}

// Two nulls over a four-value domain ({1, 2} plus two fresh constants).
Database TwoNullDb() {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Null(0)});
  db.AddTuple("R", Tuple{Value::Null(1), Value::Int(2)});
  return db;
}

TEST(CertainTest, SerialDeltaDriverAppliesOneDeltaPerWorldAfterTheFirst) {
  // One Gray chain: the first world initializes the evaluator and every
  // later world is one ApplyDelta.
  const Database db = TwoNullDb();
  auto q = RAExpr::Project({0}, RAExpr::Scan("R"));
  EvalStats stats;
  EvalOptions options;
  options.num_threads = 1;
  options.stats = &stats;
  ASSERT_TRUE(PossibleAnswersEnum(q, db, {}, options).ok());
  EXPECT_EQ(stats.delta_applied(), CountWorldsCwa(db, {}) - 1);
}

TEST(CertainTest, SerialDriverAnswersDeltaPlansDifferentially) {
  // Δ compiles into the delta evaluator like every other operator: after
  // the first world, every world is one ApplyDelta, and no node falls back.
  const Database db = TwoNullDb();
  auto q = RAExpr::Select(
      Predicate::Eq(Term::Column(0), Term::Column(2)),
      RAExpr::Product(RAExpr::Delta(), RAExpr::Project({0}, RAExpr::Scan("R"))));
  EvalStats stats;
  EvalOptions options;
  options.num_threads = 1;
  options.stats = &stats;
  ASSERT_TRUE(PossibleAnswersEnum(q, db, {}, options).ok());
  EXPECT_EQ(stats.delta_applied(), CountWorldsCwa(db, {}) - 1);
  EXPECT_EQ(stats.delta_fallbacks(), 0u);
}

TEST(CertainTest, FreshConstantsNearInt64MaxKeepNullsApart) {
  // R = {(MAX), (MIN)}, S = {(⊥0, ⊥1)}. The world that binds ⊥0 and ⊥1 to
  // two distinct constants other than MAX and MIN empties both branches of
  // the union, so no tuple is certain. It exists only if the world domain
  // holds two fresh constants, which max + 1 and max + 2 cannot provide
  // without overflowing.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Database db;
  db.AddTuple("R", Tuple{Value::Int(kMax)});
  db.AddTuple("R", Tuple{Value::Int(kMin)});
  db.AddTuple("S", Tuple{Value::Null(0), Value::Null(1)});
  auto is_extreme = [&](size_t col) {
    return Predicate::Or(
        Predicate::Eq(Term::Column(col), Term::Const(Value::Int(kMax))),
        Predicate::Eq(Term::Column(col), Term::Const(Value::Int(kMin))));
  };
  auto q = RAExpr::Project(
      {2},
      RAExpr::Product(
          RAExpr::Union(
              RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Column(1)),
                             RAExpr::Scan("S")),
              RAExpr::Select(Predicate::Or(is_extreme(0), is_extreme(1)),
                             RAExpr::Scan("S"))),
          RAExpr::Scan("R")));
  auto by_enum = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
  ASSERT_TRUE(by_enum.ok()) << by_enum.status().ToString();
  EXPECT_TRUE(by_enum->empty()) << by_enum->ToString();
  auto by_ctable = CertainAnswersCTable(q, db, WorldSemantics::kClosedWorld);
  ASSERT_TRUE(by_ctable.ok()) << by_ctable.status().ToString();
  EXPECT_TRUE(by_ctable->empty()) << by_ctable->ToString();
}

}  // namespace
}  // namespace incdb

namespace incdb {
namespace {

// Under a world budget, the enumeration drivers' status depends only on the
// plan, the database and max_worlds: a world count above the budget is
// refused before any chain starts, so an early exit on an empty
// intersection can no longer race the shared budget at some thread counts.
TEST(CertainTest, NaiveRefusesANullSelectionConstant) {
  // R = {(1, 2), (_0, 3)}: σ_{#0 = _0} matches (_0, 3) under naïve
  // evaluation, but in every world _0 is a constant and the predicate's _0
  // stays a null, so the certain answer is empty.
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("R", Tuple{Value::Null(0), Value::Int(3)});
  auto q = RAExpr::Project(
      {1}, RAExpr::Select(Predicate::Eq(Term::Column(0),
                                        Term::Const(Value::Null(0))),
                          RAExpr::Scan("R")));
  const Relation none(1);
  for (auto sem : {WorldSemantics::kOpenWorld, WorldSemantics::kClosedWorld,
                   WorldSemantics::kWeakClosedWorld}) {
    auto naive = CertainAnswersNaive(q, db, sem);
    ASSERT_FALSE(naive.ok()) << WorldSemanticsName(sem);
    EXPECT_EQ(naive.status().code(), StatusCode::kUnsupported);
    EXPECT_NE(naive.status().message().find(
                  "whose selection compares with the null _0"),
              std::string::npos)
        << naive.status().ToString();
    auto forced = CertainAnswersNaive(q, db, sem, /*force=*/true);
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(*forced, Relation(1, {Tuple{Value::Int(3)}}));
  }
  auto reference = ReferenceCertainAnswers(q, db);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(*reference, none);
  for (auto sem :
       {WorldSemantics::kOpenWorld, WorldSemantics::kClosedWorld}) {
    auto en = CertainAnswersEnum(q, db, sem);
    auto ct = CertainAnswersCTable(q, db, sem);
    ASSERT_TRUE(en.ok()) << en.status().ToString();
    ASSERT_TRUE(ct.ok()) << ct.status().ToString();
    EXPECT_EQ(*en, none) << WorldSemanticsName(sem);
    EXPECT_EQ(*ct, none) << WorldSemanticsName(sem);
  }
  const OracleReport report = CheckCase(q, db);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(CertainBudgetTest, StatusIndependentOfThreadsAndRuns) {
  Rng rng(37);
  WorldEnumOptions opts;
  opts.max_worlds = 37;
  size_t refused = 0;
  size_t answered = 0;
  for (int i = 0; i < 400; ++i) {
    RandomDbConfig dbc;
    dbc.arities = {1 + rng.Uniform(3), 1 + rng.Uniform(3)};
    dbc.rows_per_relation = 1 + rng.Uniform(6);
    dbc.domain_size = 4;
    dbc.null_density = 0.35;
    dbc.max_nulls = 3;
    const Database db = MakeRandomDatabase(dbc, rng);
    PlanGenConfig pgc;
    pgc.max_depth = 1 + rng.Uniform(3);
    const RAExprPtr plan = RandomPlan(rng, db, pgc).plan;
    std::string first;
    for (int threads : {1, 2, 4}) {
      for (int run = 0; run < 3; ++run) {
        EvalOptions eo;
        eo.num_threads = threads;
        auto certain =
            CertainAnswersEnum(plan, db, WorldSemantics::kClosedWorld, opts,
                               eo);
        auto possible = PossibleAnswersEnum(plan, db, opts, eo);
        const std::string seen =
            (certain.ok() ? certain->ToString() : certain.status().ToString()) +
            " | " +
            (possible.ok() ? possible->ToString()
                           : possible.status().ToString());
        if (threads == 1 && run == 0) {
          first = seen;
          if (!certain.ok() &&
              certain.status().code() == StatusCode::kResourceExhausted) {
            ++refused;
          } else {
            ++answered;
          }
          continue;
        }
        EXPECT_EQ(seen, first) << "case " << i << ", " << threads
                               << " threads, run " << run << ": "
                               << plan->ToString() << "\n"
                               << db.ToString();
      }
    }
  }
  // The sweep saw both sides of the budget.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(answered, 0u);
}

}  // namespace
}  // namespace incdb
