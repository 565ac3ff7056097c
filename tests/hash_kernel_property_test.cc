// Randomized property tests for the hash-indexed evaluation paths:
//
//  * EvalNaive on the columnar engine (use_hash_kernels on) and on the
//    nested-loop reference (off) returns identical relations over a pool of
//    expressions that exercises fusion (σ_eq over ×, with and without an
//    enclosing π), set difference/intersection and division;
//  * the SQL evaluator's index-served pushdown is invisible in the answer
//    for all three WHERE modes;
//  * the probe counters witness sub-quadratic work: a fused join reports
//    one probe per probe-side tuple, not |L|·|R|;
//  * division arity violations are InvalidArgument on every route.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "core/relation.h"
#include "sql/eval.h"
#include "workload/generators.h"

namespace incdb {
namespace {

Database SmallRandomDb(uint64_t seed) {
  RandomDbConfig cfg;
  cfg.arities = {2, 2};
  cfg.rows_per_relation = 6;
  cfg.domain_size = 3;
  cfg.null_density = 0.3;
  cfg.null_reuse = 0.4;
  cfg.seed = seed;
  return MakeRandomDatabase(cfg);
}

// Expressions over R0(2), R1(2) chosen so every kernel and the fusion
// paths are exercised.
std::vector<RAExprPtr> KernelQueries() {
  auto r0 = RAExpr::Scan("R0");
  auto r1 = RAExpr::Scan("R1");
  std::vector<RAExprPtr> qs;
  // Fused equi-join, bare: σ_{#1 = #2}(R0 × R1).
  qs.push_back(RAExpr::Select(
      Predicate::Eq(Term::Column(1), Term::Column(2)),
      RAExpr::Product(r0, r1)));
  // Fused equi-join under projection: π_{0,3}(σ_{#1 = #2}(R0 × R1)).
  qs.push_back(RAExpr::Project(
      {0, 3},
      RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                     RAExpr::Product(r0, r1))));
  // Two join keys.
  qs.push_back(RAExpr::Select(
      Predicate::And(Predicate::Eq(Term::Column(0), Term::Column(2)),
                     Predicate::Eq(Term::Column(1), Term::Column(3))),
      RAExpr::Product(r0, r1)));
  // Join key plus residual constant comparison.
  qs.push_back(RAExpr::Select(
      Predicate::And(
          Predicate::Eq(Term::Column(1), Term::Column(2)),
          Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1)))),
      RAExpr::Product(r0, r1)));
  // Disjunctive predicate over a product: NOT fusable, must fall back.
  qs.push_back(RAExpr::Select(
      Predicate::Or(Predicate::Eq(Term::Column(0), Term::Column(2)),
                    Predicate::Eq(Term::Column(1), Term::Column(3))),
      RAExpr::Product(r0, r1)));
  // Indexed set operations.
  qs.push_back(RAExpr::Diff(r0, r1));
  qs.push_back(RAExpr::Intersect(r0, r1));
  qs.push_back(RAExpr::Union(RAExpr::Project({0}, r0),
                             RAExpr::Project({1}, r1)));
  // Division: R0(2) ÷ π_0(R1).
  qs.push_back(RAExpr::Divide(r0, RAExpr::Project({0}, r1)));
  // Self-join through Δ: σ_{#1 = #2}((R0 × Δ)) projected back.
  qs.push_back(RAExpr::Project(
      {0, 3},
      RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                     RAExpr::Product(r0, RAExpr::Delta()))));
  return qs;
}

class HashKernelSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashKernelSweep, EvalNaiveAgreesWithNestedLoopReference) {
  Database db = SmallRandomDb(GetParam());
  EvalOptions hash;
  hash.use_hash_kernels = true;
  EvalOptions loops;
  loops.use_hash_kernels = false;
  for (const RAExprPtr& q : KernelQueries()) {
    auto fast = EvalNaive(q, db, hash);
    auto slow = EvalNaive(q, db, loops);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    EXPECT_EQ(*fast, *slow) << q->ToString() << "\n" << db.ToString();
  }
}

TEST_P(HashKernelSweep, SqlPushdownInvisibleInAnswer) {
  // Rebuild the random tables under a named schema so SQL can see them.
  Database rnd = SmallRandomDb(GetParam());
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R0", {"a", "b"}).ok());
  ASSERT_TRUE(schema.AddRelation("R1", {"c", "d"}).ok());
  Database db(schema);
  for (const Tuple& t : rnd.GetRelation("R0").tuples()) db.AddTuple("R0", t);
  for (const Tuple& t : rnd.GetRelation("R1").tuples()) db.AddTuple("R1", t);

  const std::vector<std::string> queries = {
      "SELECT a, d FROM R0, R1 WHERE b = c",
      "SELECT * FROM R0, R1 WHERE b = c AND a = 1",
      "SELECT a FROM R0 WHERE b = 2",
      "SELECT * FROM R0, R1 WHERE a = d AND b = c",
      "SELECT a FROM R0 WHERE a IN (SELECT c FROM R1)",
      "SELECT a FROM R0 WHERE EXISTS (SELECT * FROM R1 WHERE c = b)",
  };
  EvalOptions hash;
  hash.use_hash_kernels = true;
  EvalOptions loops;
  loops.use_hash_kernels = false;
  for (const std::string& sql : queries) {
    for (auto mode : {SqlEvalMode::kSql3VL, SqlEvalMode::kNaive,
                      SqlEvalMode::kSqlMaybe}) {
      auto fast = EvalSql(sql, db, mode, hash);
      auto slow = EvalSql(sql, db, mode, loops);
      ASSERT_TRUE(fast.ok()) << sql << ": " << fast.status().ToString();
      ASSERT_TRUE(slow.ok()) << sql << ": " << slow.status().ToString();
      EXPECT_EQ(*fast, *slow) << sql << " (mode " << static_cast<int>(mode)
                              << ")\n" << db.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HashKernelSweep,
                         ::testing::Range<uint64_t>(0, 20));

TEST(HashKernelStats, FusedJoinProbesAreLinearNotQuadratic) {
  // R0 and R1 with n rows each; the fused join must probe once per
  // probe-side tuple instead of inspecting n² pairs.
  constexpr size_t n = 64;
  Database db;
  Relation* r0 = db.MutableRelation("R0", 2);
  Relation* r1 = db.MutableRelation("R1", 2);
  for (size_t i = 0; i < n; ++i) {
    r0->Add(Tuple{Value::Int(static_cast<int64_t>(i)),
                  Value::Int(static_cast<int64_t>(i % 8))});
    r1->Add(Tuple{Value::Int(static_cast<int64_t>(i % 8)),
                  Value::Int(static_cast<int64_t>(i))});
  }
  auto q = RAExpr::Project(
      {0, 3},
      RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                     RAExpr::Product(RAExpr::Scan("R0"), RAExpr::Scan("R1"))));
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  auto out = EvalNaive(q, db, options);
  ASSERT_TRUE(out.ok());

  const OpCounters& join = stats.at(EvalOp::kHashJoin);
  EXPECT_EQ(join.calls, 1u);
  EXPECT_EQ(join.probes, n);          // one per probe-side tuple
  EXPECT_LT(join.probes, n * n / 4);  // and nowhere near the cross product
  // The product operator never ran: the σ∘× pattern was fused away.
  EXPECT_EQ(stats.at(EvalOp::kProduct).calls, 0u);
}

TEST(HashKernelStats, DivisionProbesAreOnePassCounting) {
  constexpr size_t employees = 100;
  constexpr size_t projects = 8;
  Database db;
  Relation* assign = db.MutableRelation("Assign", 2);
  Relation* proj = db.MutableRelation("Proj", 1);
  for (size_t e = 0; e < employees; ++e) {
    for (size_t p = 0; p < projects; ++p) {
      if ((e + p) % 2 == 0 || e % 10 == 0) {
        assign->Add(Tuple{Value::Int(static_cast<int64_t>(e)),
                          Value::Int(static_cast<int64_t>(p))});
      }
    }
  }
  for (size_t p = 0; p < projects; ++p) {
    proj->Add(Tuple{Value::Int(static_cast<int64_t>(p))});
  }
  auto q = RAExpr::Divide(RAExpr::Scan("Assign"), RAExpr::Scan("Proj"));
  EvalStats stats;
  EvalOptions options;
  options.stats = &stats;
  auto out = EvalNaive(q, db, options);
  ASSERT_TRUE(out.ok());

  const OpCounters& div = stats.at(EvalOp::kDivide);
  EXPECT_EQ(div.calls, 1u);
  // Counting division: one divisor probe per tuple of the dividend —
  // never |R| scans per (head, divisor) pair.
  EXPECT_EQ(div.probes, assign->size());
}

TEST(HashKernelErrors, DivisionArityViolationsAreInvalidArgument) {
  Relation r2(2);
  r2.Add(Tuple{Value::Int(1), Value::Int(2)});
  Relation r0(0);
  Relation same(2);

  auto empty_divisor = DivideRelations(r2, r0);
  EXPECT_FALSE(empty_divisor.ok());
  EXPECT_EQ(empty_divisor.status().code(), StatusCode::kInvalidArgument);

  auto too_wide = DivideRelations(r2, same);
  EXPECT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);

  // Through the evaluator, on both routes.
  Database db;
  *db.MutableRelation("R", 2) = r2;
  auto q = RAExpr::Divide(RAExpr::Scan("R"), RAExpr::Scan("R"));
  for (bool hash : {true, false}) {
    EvalOptions options;
    options.use_hash_kernels = hash;
    auto via_eval = EvalNaive(q, db, options);
    EXPECT_FALSE(via_eval.ok()) << "use_hash_kernels=" << hash;
    EXPECT_EQ(via_eval.status().code(), StatusCode::kInvalidArgument)
        << "use_hash_kernels=" << hash;
  }
}

TEST(HashIndexProperty, ContainsMatchesLinearScan) {
  Database db = SmallRandomDb(3);
  const Relation& r0 = db.GetRelation("R0");
  const Relation& r1 = db.GetRelation("R1");
  for (const Tuple& t : r0.tuples()) {
    bool linear = false;
    for (const Tuple& u : r1.tuples()) linear = linear || t == u;
    EXPECT_EQ(r1.Contains(t), linear) << t.ToString();
    EXPECT_TRUE(r0.Contains(t));
  }
}

}  // namespace
}  // namespace incdb
