// Randomized property tests for the plan optimizer: over seeded random
// databases with marked nulls, every answer notion the QueryEngine serves
// must return a bit-identical relation with the optimizer on vs off, serial
// and parallel — and Optimize() itself must preserve answers and fragment
// for RA plans built from every operator.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/certain.h"
#include "algebra/classify.h"
#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "algebra/optimize.h"
#include "engine/query_engine.h"
#include "workload/generators.h"

namespace incdb {
namespace {

// Same shape as the parallel sweep's databases: two binary relations, small
// domain, few nulls (fresh_constants pinned to 1 keeps worlds ≤ 4^#nulls).
Database NamedRandomDb(uint64_t seed) {
  RandomDbConfig cfg;
  cfg.arities = {2, 2};
  cfg.rows_per_relation = 5;
  cfg.domain_size = 3;
  cfg.null_density = 0.15;
  cfg.null_reuse = 0.5;
  cfg.seed = seed;
  Database rnd = MakeRandomDatabase(cfg);

  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R0", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("R1", {"c", "d"}).ok());
  Database db(schema);
  for (const Tuple& t : rnd.GetRelation("R0").tuples()) db.AddTuple("R0", t);
  for (const Tuple& t : rnd.GetRelation("R1").tuples()) db.AddTuple("R1", t);
  return db;
}

// RA plans exercising every rewrite family: σσ stacks over products, σ over
// ∪/∩/−, π∘π, π over ×, a ≥3-leaf join spine, and a division.
std::vector<RAExprPtr> SweepPlans() {
  auto r0 = RAExpr::Scan("R0");
  auto r1 = RAExpr::Scan("R1");
  auto eq12 = Predicate::Eq(Term::Column(1), Term::Column(2));
  auto c0 = Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1)));
  return {
      RAExpr::Project({0, 3},
                      RAExpr::Select(eq12, RAExpr::Product(r0, r1))),
      RAExpr::Select(eq12,
                     RAExpr::Select(c0, RAExpr::Product(r0, r1))),
      RAExpr::Select(c0, RAExpr::Union(r0, r1)),
      RAExpr::Select(c0, RAExpr::Diff(r0, r1)),
      RAExpr::Select(c0, RAExpr::Intersect(r0, r1)),
      RAExpr::Project({0}, RAExpr::Project({1, 0}, r0)),
      RAExpr::Project({0, 2}, RAExpr::Product(r0, r1)),
      RAExpr::Select(
          Predicate::And(eq12,
                         Predicate::Eq(Term::Column(3), Term::Column(4))),
          RAExpr::Product(RAExpr::Product(r0, r1), r0)),
      RAExpr::Divide(RAExpr::Product(r0, RAExpr::Project({0}, r1)),
                     RAExpr::Project({0}, r1)),
  };
}

class OptimizerSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerSweep, OptimizedPlansAnswerIdenticallyUnderEveryEvaluator) {
  Database db = NamedRandomDb(GetParam());
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;
  for (const RAExprPtr& e : SweepPlans()) {
    RAExprPtr opt = Optimize(e, db);
    ASSERT_EQ(Classify(opt), Classify(e)) << e->ToString();

    auto naive_base = EvalNaive(e, db);
    auto naive_opt = EvalNaive(opt, db);
    ASSERT_EQ(naive_base.ok(), naive_opt.ok()) << e->ToString();
    if (naive_base.ok()) EXPECT_EQ(*naive_opt, *naive_base) << e->ToString();

    auto tvl_base = Eval3VL(e, db);
    auto tvl_opt = Eval3VL(opt, db);
    ASSERT_EQ(tvl_base.ok(), tvl_opt.ok()) << e->ToString();
    if (tvl_base.ok()) EXPECT_EQ(*tvl_opt, *tvl_base) << e->ToString();
    // Both equal the fold on the unoptimized plan.
    auto tvl_fold = Eval3VLReference(e, db);
    ASSERT_EQ(tvl_fold.ok(), tvl_base.ok()) << e->ToString();
    if (tvl_fold.ok()) EXPECT_EQ(*tvl_base, *tvl_fold) << e->ToString();

    // Enumeration drivers with the optimizer off on both plans, so the
    // comparison isolates Optimize() itself.
    EvalOptions plain;
    plain.optimize = false;
    plain.num_threads = 1;
    auto enum_base = CertainAnswersEnum(e, db, WorldSemantics::kClosedWorld,
                                        world_opts, plain);
    auto enum_opt = CertainAnswersEnum(opt, db, WorldSemantics::kClosedWorld,
                                       world_opts, plain);
    ASSERT_EQ(enum_base.ok(), enum_opt.ok()) << e->ToString();
    if (enum_base.ok()) EXPECT_EQ(*enum_opt, *enum_base) << e->ToString();
  }
}

constexpr AnswerNotion kAllNotions[] = {
    AnswerNotion::kNaive,       AnswerNotion::k3VL,
    AnswerNotion::kMaybe,       AnswerNotion::kCertainNaive,
    AnswerNotion::kCertainEnum, AnswerNotion::kCertainObject,
    AnswerNotion::kPossible,
};

TEST_P(OptimizerSweep, EveryNotionMatchesWithKnobsOnAndOff) {
  Database db = NamedRandomDb(GetParam());
  QueryEngine engine(db);
  const std::vector<std::string> queries = {
      "SELECT a, d FROM R0, R1 WHERE b = c",
      "SELECT a FROM R0 WHERE a NOT IN (SELECT c FROM R1)",
      "SELECT a FROM R0 WHERE b = 1",
  };
  for (const std::string& sql : queries) {
    for (AnswerNotion notion : kAllNotions) {
      QueryRequest off;
      off.input = QueryInput::SqlText(sql);
      off.notion = notion;
      off.world_options.fresh_constants = 1;
      off.eval.num_threads = 1;
      off.eval.optimize = false;
      auto base = engine.Run(off);

      for (int threads : {1, 7}) {
        QueryRequest req = off;
        req.eval.optimize = true;
        req.eval.num_threads = threads;
        auto got = engine.Run(req);
        if (!base.ok()) {
          ASSERT_FALSE(got.ok()) << AnswerNotionName(notion) << ": " << sql;
          EXPECT_EQ(got.status().code(), base.status().code());
          continue;
        }
        ASSERT_TRUE(got.ok())
            << AnswerNotionName(notion) << ": " << sql << ": "
            << got.status().ToString();
        EXPECT_EQ(got->relation, base->relation)
            << AnswerNotionName(notion) << " threads=" << threads << ": "
            << sql << "\n" << db.ToString();
        EXPECT_EQ(got->naive_guarantee, base->naive_guarantee);
        EXPECT_EQ(got->fragment, base->fragment);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimizerSweep,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace incdb
