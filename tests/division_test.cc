// Division and RA_cwa end-to-end: "employees assigned to every project"
// with incomplete assignments, Section 6.2.

#include <gtest/gtest.h>

#include "algebra/certain.h"
#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "workload/generators.h"

namespace incdb {
namespace {

TEST(DivisionTest, CompleteDataAllEvaluatorsAgree) {
  DivisionConfig cfg;
  cfg.n_employees = 50;
  cfg.n_projects = 4;
  cfg.seed = 2;
  Database db = MakeDivisionWorkload(cfg);
  auto q = RAExpr::Divide(RAExpr::Scan("Assign"), RAExpr::Scan("Proj"));

  auto naive = EvalNaive(q, db);
  auto sql = Eval3VL(q, db);
  auto expanded = EvalNaive(RAExpr::ExpandDivision(q, db.schema()), db);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(sql.ok());
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(*naive, *sql);
  EXPECT_EQ(*naive, *expanded);
}

TEST(DivisionTest, CwaNaiveEvaluationIsExactOnSmallInstances) {
  // Property: for RA_cwa division queries with nulls, naive == enumeration.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    Database db;
    NullId next = 0;
    for (int64_t e = 0; e < 3; ++e) {
      for (int64_t p = 0; p < 2; ++p) {
        if (rng.Bernoulli(0.6)) {
          const Value pv =
              rng.Bernoulli(0.3) ? Value::Null(next++) : Value::Int(p);
          db.AddTuple("Assign", Tuple{Value::Int(e), pv});
        }
      }
    }
    db.AddTuple("Proj", Tuple{Value::Int(0)});
    db.AddTuple("Proj", Tuple{Value::Int(1)});

    auto q = RAExpr::Divide(RAExpr::Scan("Assign"), RAExpr::Scan("Proj"));
    auto naive = CertainAnswersNaive(q, db, WorldSemantics::kClosedWorld);
    auto truth = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(*naive, *truth) << "seed " << seed << "\n" << db.ToString();
  }
}

TEST(DivisionTest, GuardedDivisorWithDeltaAndUnion) {
  // Divisor from the RA(Δ,π,×,∪) grammar: Proj ∪ π_0(Proj2).
  Database db;
  db.AddTuple("Assign", Tuple{Value::Int(1), Value::Int(0)});
  db.AddTuple("Assign", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("Assign", Tuple{Value::Int(2), Value::Int(0)});
  db.AddTuple("Proj", Tuple{Value::Int(0)});
  db.AddTuple("Proj2", Tuple{Value::Int(1), Value::Int(9)});

  auto divisor = RAExpr::Union(RAExpr::Scan("Proj"),
                               RAExpr::Project({0}, RAExpr::Scan("Proj2")));
  auto q = RAExpr::Divide(RAExpr::Scan("Assign"), divisor);
  EXPECT_TRUE(IsRAcwa(q));

  auto r = EvalNaive(q, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Int(1)}));
}

TEST(DivisionTest, ThreeVLDivisionIsSoundUnderCwa) {
  // 3VL division returns only certain heads (it requires TRUE matches), so
  // its answers are a subset of the certain answers on these workloads.
  for (uint64_t seed = 10; seed < 14; ++seed) {
    Rng rng(seed);
    Database db;
    NullId next = 0;
    for (int64_t e = 0; e < 3; ++e) {
      for (int64_t p = 0; p < 2; ++p) {
        if (rng.Bernoulli(0.7)) {
          const Value pv =
              rng.Bernoulli(0.4) ? Value::Null(next++) : Value::Int(p);
          db.AddTuple("Assign", Tuple{Value::Int(e), pv});
        }
      }
    }
    db.AddTuple("Proj", Tuple{Value::Int(0)});
    db.AddTuple("Proj", Tuple{Value::Int(1)});
    auto q = RAExpr::Divide(RAExpr::Scan("Assign"), RAExpr::Scan("Proj"));
    auto sql = Eval3VL(q, db);
    auto truth = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld);
    ASSERT_TRUE(sql.ok());
    ASSERT_TRUE(truth.ok());
    EXPECT_TRUE(sql->CompletePart().IsSubsetOf(*truth))
        << "seed " << seed << "\n"
        << db.ToString();
  }
}

}  // namespace
}  // namespace incdb
