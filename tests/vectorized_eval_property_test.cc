// Randomized property tests for the batch-vectorized evaluator: for seeded
// random databases with marked nulls and random RA plans over every fragment
// (positive, RA_cwa with guarded division, full RA with −, ÷, order
// predicates, NOT and IS NULL), EvalNaive on the columnar engine must return
// a relation bit-identical to the nested-loop reference, serially and with
// the parallel chunked loops forced onto the tiny inputs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/eval.h"
#include "testing/fuzz_gen.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

struct VecCase {
  QueryClass fragment;
  double string_density;
};

class VectorizedPlanSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorizedPlanSweep, MatchesReferenceOnRandomPlans) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 1);
  const VecCase cases[] = {
      {QueryClass::kPositive, 0.0},
      {QueryClass::kRAcwa, 0.0},
      {QueryClass::kFullRA, 0.0},
      {QueryClass::kFullRA, 0.4},  // strings exercise dictionary mixing
  };
  for (const VecCase& vc : cases) {
    RandomDbConfig db_cfg;
    db_cfg.arities = {2, 3};
    db_cfg.rows_per_relation = 12;
    db_cfg.domain_size = 5;
    db_cfg.null_density = 0.2;
    db_cfg.null_reuse = 0.4;
    db_cfg.string_density = vc.string_density;
    Database db = MakeRandomDatabase(db_cfg, rng);

    PlanGenConfig plan_cfg;
    plan_cfg.fragment = vc.fragment;
    plan_cfg.max_depth = 4;
    plan_cfg.domain_size = 5;

    for (int round = 0; round < 8; ++round) {
      GeneratedPlan gen = RandomPlan(rng, db, plan_cfg);
      const std::string label = gen.plan->ToString();

      EvalOptions reference;  // nested-loop oracle
      reference.use_hash_kernels = false;
      reference.optimize = false;
      reference.num_threads = 1;
      auto want = EvalNaive(gen.plan, db, reference);

      for (bool optimize : {false, true}) {
        for (int threads : {1, 7}) {
          EvalStats stats;
          EvalOptions vec;
          vec.optimize = optimize;
          vec.num_threads = threads;
          vec.parallel_row_threshold = 2;  // force the chunked loops
          vec.stats = &stats;
          const std::string combo = label + (optimize ? " +opt" : "") + " @" +
                                    std::to_string(threads);
          auto vec_got = EvalNaive(gen.plan, db, vec);
          if (!want.ok()) {
            ASSERT_FALSE(vec_got.ok()) << combo;
            EXPECT_EQ(vec_got.status().code(), want.status().code()) << combo;
            continue;
          }
          ASSERT_TRUE(vec_got.ok()) << combo << ": "
                                    << vec_got.status().ToString();
          EXPECT_EQ(*vec_got, *want) << combo << "\n" << db.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorizedPlanSweep,
                         ::testing::Range<uint64_t>(0, 10));

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

TEST(VectorizedStatsTest, CountsBatchesAndRowsOnTheColumnarEngineOnly) {
  Database db = NamedRandomDb(3);
  auto q = RAExpr::Project(
      {0, 3}, RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                             RAExpr::Product(RAExpr::Scan("R0"),
                                             RAExpr::Scan("R1"))));
  EvalStats vec_stats;
  EvalOptions vec;
  vec.stats = &vec_stats;
  vec.num_threads = 1;
  ASSERT_TRUE(EvalNaive(q, db, vec).ok());
  EXPECT_GT(vec_stats.batches_processed(), 0u);
  EXPECT_GT(vec_stats.rows_vectorized(), 0u);
  // The counters reach the printed table.
  EXPECT_NE(vec_stats.ToString().find("vectorized"), std::string::npos);

  // With hash kernels off the evaluator is the nested-loop reference and
  // stays tuple-at-a-time.
  EvalStats ref_stats;
  EvalOptions ref;
  ref.stats = &ref_stats;
  ref.use_hash_kernels = false;
  ref.num_threads = 1;
  ASSERT_TRUE(EvalNaive(q, db, ref).ok());
  EXPECT_EQ(ref_stats.batches_processed(), 0u);
  EXPECT_EQ(ref_stats.rows_vectorized(), 0u);
}

TEST(VectorizedStatsTest, BatchCountsAreThreadCountInvariant) {
  // One kernel invocation over n rows counts ceil(n / batch) batches no
  // matter how the loop was chunked across threads.
  Relation big(2);
  for (int64_t i = 0; i < 5000; ++i) {
    big.Add(Tuple{Value::Int(i), Value::Int(i % 97)});
  }
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  Database db(schema);
  for (const Tuple& t : big.tuples()) db.AddTuple("R", t);

  auto q = RAExpr::Select(
      Predicate::Cmp(CmpOp::kLt, Term::Column(1), Term::Const(Value::Int(50))),
      RAExpr::Scan("R"));

  uint64_t serial_batches = 0;
  for (int threads : {1, 7}) {
    EvalStats stats;
    EvalOptions opts;
    opts.num_threads = threads;
    opts.parallel_row_threshold = 2;
    opts.stats = &stats;
    auto got = EvalNaive(q, db, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(stats.rows_vectorized(), 5000u) << threads;
    if (threads == 1) {
      serial_batches = stats.batches_processed();
      EXPECT_GT(serial_batches, 1u);
    } else {
      EXPECT_EQ(stats.batches_processed(), serial_batches) << threads;
    }
  }
}

}  // namespace
}  // namespace incdb
