// Unit tests for the algebraic plan optimizer: one test per rewrite family
// (selection fusion/pushdown, projection composition/distribution/identity,
// greedy join ordering), plus the invariants every rewrite must keep —
// bit-identical answers and an unchanged fragment classification.

#include "algebra/optimize.h"

#include <gtest/gtest.h>

#include "algebra/classify.h"
#include "algebra/eval.h"

namespace incdb {
namespace {

Database TestDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"c", "d"}).ok());
  EXPECT_TRUE(schema.AddRelation("T", {"e", "f"}).ok());
  Database db(schema);
  for (int64_t i = 0; i < 8; ++i) {
    db.AddTuple("R", Tuple{Value::Int(i), Value::Int(i % 3)});
  }
  for (int64_t i = 0; i < 4; ++i) {
    db.AddTuple("S", Tuple{Value::Int(i % 3), Value::Int(i + 10)});
  }
  db.AddTuple("T", Tuple{Value::Int(11), Value::Int(0)});
  db.AddTuple("R", Tuple{Value::Null(1), Value::Int(1)});
  return db;
}

// Optimize must never change the answer (naïve semantics here; the property
// test covers every notion).
void ExpectSameAnswer(const RAExprPtr& e, const RAExprPtr& opt,
                      const Database& db) {
  auto base = EvalNaive(e, db);
  auto got = EvalNaive(opt, db);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *base) << "plan: " << e->ToString()
                         << "\noptimized: " << opt->ToString();
}

TEST(OptimizeTest, StackedSelectionsFuseAndSplitOverProduct) {
  Database db = TestDb();
  // σ_{#1=#2}(σ_{#0=1}(R × S)): the σσ fuse, #0=1 pushes into R, and the
  // cross equality stays above the product (the hash-join shape).
  auto e = RAExpr::Select(
      Predicate::Eq(Term::Column(1), Term::Column(2)),
      RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))),
                     RAExpr::Product(RAExpr::Scan("R"), RAExpr::Scan("S"))));
  OptimizerReport report;
  RAExprPtr opt = Optimize(e, db, &report);
  EXPECT_GE(report.selections_fused, 1u);
  EXPECT_GE(report.selections_pushed, 1u);
  ASSERT_EQ(opt->kind(), RAExpr::Kind::kSelect);
  ASSERT_EQ(opt->left()->kind(), RAExpr::Kind::kProduct);
  EXPECT_EQ(opt->left()->left()->kind(), RAExpr::Kind::kSelect)
      << opt->ToString();
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, SelectionDistributesOverUnion) {
  Database db = TestDb();
  auto e = RAExpr::Select(
      Predicate::Eq(Term::Column(0), Term::Const(Value::Int(2))),
      RAExpr::Union(RAExpr::Scan("R"), RAExpr::Scan("S")));
  OptimizerReport report;
  RAExprPtr opt = Optimize(e, db, &report);
  EXPECT_EQ(opt->kind(), RAExpr::Kind::kUnion) << opt->ToString();
  EXPECT_GE(report.selections_pushed, 1u);
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, SelectionPushesIntoLeftOfDiffAndIntersect) {
  Database db = TestDb();
  for (auto make : {&RAExpr::Diff, &RAExpr::Intersect}) {
    auto e = RAExpr::Select(
        Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))),
        make(RAExpr::Scan("R"), RAExpr::Scan("S")));
    RAExprPtr opt = Optimize(e, db);
    // σ_p(A − B) = σ_p(A) − B (same for ∩): the σ is gone from the top.
    EXPECT_EQ(opt->kind(), e->left()->kind()) << opt->ToString();
    EXPECT_EQ(opt->left()->kind(), RAExpr::Kind::kSelect);
    ExpectSameAnswer(e, opt, db);
  }
}

TEST(OptimizeTest, ProjectionsCompose) {
  Database db = TestDb();
  // π_{0}(π_{1,0}(R)) = π_{1}(R).
  auto e = RAExpr::Project(
      {0}, RAExpr::Project({1, 0}, RAExpr::Scan("R")));
  OptimizerReport report;
  RAExprPtr opt = Optimize(e, db, &report);
  ASSERT_EQ(opt->kind(), RAExpr::Kind::kProject);
  EXPECT_EQ(opt->columns(), (std::vector<size_t>{1}));
  EXPECT_EQ(opt->left()->kind(), RAExpr::Kind::kScan);
  EXPECT_GE(report.projections_pushed, 1u);
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, IdentityProjectionDisappears) {
  Database db = TestDb();
  auto e = RAExpr::Project({0, 1}, RAExpr::Scan("R"));
  RAExprPtr opt = Optimize(e, db);
  EXPECT_EQ(opt->kind(), RAExpr::Kind::kScan);
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, BlockProjectionSplitsOverProduct) {
  Database db = TestDb();
  // π_{0,2}(R × S): left block {0}, right block {2} → π_{0}(R) × π_{0}(S).
  auto e = RAExpr::Project(
      {0, 2}, RAExpr::Product(RAExpr::Scan("R"), RAExpr::Scan("S")));
  RAExprPtr opt = Optimize(e, db);
  ASSERT_EQ(opt->kind(), RAExpr::Kind::kProduct) << opt->ToString();
  EXPECT_EQ(opt->left()->kind(), RAExpr::Kind::kProject);
  EXPECT_EQ(opt->right()->kind(), RAExpr::Kind::kProject);
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, ProjectOverSelectOverProductKeepsFusedShape) {
  Database db = TestDb();
  // The evaluators fuse π(σ(l × r)) into the hash join's emit; the optimizer
  // must not split that π away from the σ.
  auto e = RAExpr::Project(
      {0, 3},
      RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                     RAExpr::Product(RAExpr::Scan("R"), RAExpr::Scan("S"))));
  RAExprPtr opt = Optimize(e, db);
  ASSERT_EQ(opt->kind(), RAExpr::Kind::kProject) << opt->ToString();
  EXPECT_EQ(opt->left()->kind(), RAExpr::Kind::kSelect);
  EXPECT_EQ(opt->left()->left()->kind(), RAExpr::Kind::kProduct);
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, GreedyJoinOrderingStartsFromSmallestRelation) {
  Database db = TestDb();  // |R| = 9, |S| = 4, |T| = 1
  // σ_{#1=#2 ∧ #3=#4}((R × S) × T): greedy order is T, then S (connected via
  // #3=#4), then R — not the written order, so the spine is rebuilt under a
  // column-restoring π.
  auto e = RAExpr::Select(
      Predicate::And(Predicate::Eq(Term::Column(1), Term::Column(2)),
                     Predicate::Eq(Term::Column(3), Term::Column(4))),
      RAExpr::Product(RAExpr::Product(RAExpr::Scan("R"), RAExpr::Scan("S")),
                      RAExpr::Scan("T")));
  OptimizerReport report;
  RAExprPtr opt = Optimize(e, db, &report);
  EXPECT_GE(report.joins_reordered, 1u) << opt->ToString();
  EXPECT_EQ(opt->kind(), RAExpr::Kind::kProject) << opt->ToString();
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, JoinOrderingLeavesGoodOrdersAlone) {
  Database db = TestDb();
  // Already smallest-first and connected: T × S × R with chained equalities.
  auto e = RAExpr::Select(
      Predicate::And(Predicate::Eq(Term::Column(1), Term::Column(2)),
                     Predicate::Eq(Term::Column(3), Term::Column(4))),
      RAExpr::Product(RAExpr::Product(RAExpr::Scan("T"), RAExpr::Scan("S")),
                      RAExpr::Scan("R")));
  OptimizerReport report;
  RAExprPtr opt = Optimize(e, db, &report);
  EXPECT_EQ(report.joins_reordered, 0u) << opt->ToString();
  ExpectSameAnswer(e, opt, db);
}

TEST(OptimizeTest, FragmentIsPreservedAcrossTheFragments) {
  Database db = TestDb();
  const std::vector<RAExprPtr> queries = {
      // positive: σπ×∪ with a pushable conjunction
      RAExpr::Select(
          Predicate::And(
              Predicate::Eq(Term::Column(1), Term::Column(2)),
              Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1)))),
          RAExpr::Product(RAExpr::Scan("R"), RAExpr::Scan("S"))),
      // RA^cwa: division by a Δ-π-×-∪ divisor
      RAExpr::Divide(RAExpr::Scan("R"), RAExpr::Project({0}, RAExpr::Scan("S"))),
      // full RA: difference under a selection
      RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))),
                     RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S"))),
  };
  for (const RAExprPtr& e : queries) {
    RAExprPtr opt = Optimize(e, db);
    EXPECT_EQ(Classify(opt), Classify(e)) << e->ToString() << "\n→ "
                                          << opt->ToString();
    ExpectSameAnswer(e, opt, db);
  }
}

TEST(OptimizeTest, IllTypedPlansComeBackUnchanged) {
  Database db = TestDb();
  auto e = RAExpr::Project({5}, RAExpr::Scan("R"));  // column out of range
  EXPECT_EQ(Optimize(e, db).get(), e.get());
}

TEST(OptimizeTest, FingerprintSeparatesStructures) {
  auto a = RAExpr::Scan("R");
  auto b = RAExpr::Scan("S");
  EXPECT_EQ(RAFingerprint(RAExpr::Union(a, b)),
            RAFingerprint(RAExpr::Union(RAExpr::Scan("R"), RAExpr::Scan("S"))));
  EXPECT_NE(RAFingerprint(RAExpr::Union(a, b)),
            RAFingerprint(RAExpr::Union(b, a)));
  EXPECT_NE(RAFingerprint(a), RAFingerprint(b));
}

TEST(OptimizeTest, CardinalityEstimatesFollowRelationSizes) {
  Database db = TestDb();
  EXPECT_DOUBLE_EQ(EstimateCardinality(RAExpr::Scan("T"), db), 1.0);
  EXPECT_DOUBLE_EQ(EstimateCardinality(RAExpr::Scan("S"), db), 4.0);
  EXPECT_LT(EstimateCardinality(
                RAExpr::Select(Predicate::Eq(Term::Column(0),
                                             Term::Const(Value::Int(1))),
                               RAExpr::Scan("R")),
                db),
            EstimateCardinality(RAExpr::Scan("R"), db));
  EXPECT_DOUBLE_EQ(
      EstimateCardinality(
          RAExpr::Product(RAExpr::Scan("S"), RAExpr::Scan("T")), db),
      4.0);
}

}  // namespace
}  // namespace incdb
