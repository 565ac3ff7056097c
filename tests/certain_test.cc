// Certain answers: naïve shortcut vs possible-world ground truth, including
// the paper's π_A(R − S) counterexample where naïve evaluation fails.

#include <gtest/gtest.h>

#include "algebra/certain.h"
#include "algebra/eval.h"

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
  // count, on the delta and the per-world path.
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
      for (bool delta : {false, true}) {
        EvalOptions options;
        options.num_threads = threads;
        options.delta_eval = delta;
        auto certain = CertainAnswersEnum(q, *db, WorldSemantics::kClosedWorld,
                                          {}, options);
        auto possible = PossibleAnswersEnum(q, *db, {}, options);
        ASSERT_TRUE(certain.ok()) << certain.status().ToString();
        ASSERT_TRUE(possible.ok()) << possible.status().ToString();
        EXPECT_EQ(*certain, *want) << threads << " threads, delta " << delta;
        EXPECT_EQ(*possible, *want) << threads << " threads, delta " << delta;
      }
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

TEST(CertainTest, SerialDriverCountsOneFallbackPerWorldForDeltaPlans) {
  // The delta evaluator rejects Δ, so every world is evaluated in full and
  // counted as one fallback.
  const Database db = TwoNullDb();
  auto q = RAExpr::Select(
      Predicate::Eq(Term::Column(0), Term::Column(2)),
      RAExpr::Product(RAExpr::Delta(), RAExpr::Project({0}, RAExpr::Scan("R"))));
  EvalStats stats;
  EvalOptions options;
  options.num_threads = 1;
  options.stats = &stats;
  ASSERT_TRUE(PossibleAnswersEnum(q, db, {}, options).ok());
  EXPECT_EQ(stats.delta_fallbacks(), CountWorldsCwa(db, {}));
  EXPECT_EQ(stats.delta_applied(), 0u);
}

TEST(CertainTest, DropNullTuples) {
  Relation r(2);
  r.Add(Tuple{Value::Int(1), Value::Int(2)});
  r.Add(Tuple{Value::Int(1), Value::Null(0)});
  Relation d = DropNullTuples(r);
  EXPECT_EQ(d.size(), 1u);
}

}  // namespace
}  // namespace incdb
