// Randomized property tests for the batch-vectorized evaluator: for seeded
// random databases with marked nulls and random RA plans over every fragment
// (positive, RA_cwa with guarded division, full RA with −, ÷, order
// predicates, NOT and IS NULL), EvalNaive on the columnar engine must return
// a relation bit-identical to the nested-loop reference, serially and with
// the parallel chunked loops forced onto the tiny inputs. The sweep runs
// each database twice: as built, every relation with a dictionary of its
// own, and as a published DatabaseSnapshot, whose relations share one
// dictionary, so base relations meet without a merge while random literals
// still take the merge path. Fixed instances add the hash join's
// build-side edge cases, and VectorizedStatsTest pins the kernels' exact
// work counters.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "core/columnar.h"
#include "service/snapshot.h"
#include "testing/fuzz_gen.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

struct VecCase {
  QueryClass fragment;
  double string_density;
};

// EvalNaive on the columnar engine, with and without the optimizer,
// serially and with the chunked loops forced, must equal the nested-loop
// reference or fail with the same status code.
void ExpectMatchesReference(const RAExprPtr& plan, const Database& db) {
  const std::string label = plan->ToString();
  auto want = EvalNaiveReference(plan, db);

  for (bool optimize : {false, true}) {
    for (int threads : {1, 7}) {
      EvalStats stats;
      EvalOptions vec;
      vec.optimize = optimize;
      vec.num_threads = threads;
      vec.parallel_row_threshold = 2;  // force the chunked loops
      vec.stats = &stats;
      const std::string combo =
          label + (optimize ? " +opt" : "") + " @" + std::to_string(threads);
      auto vec_got = EvalNaive(plan, db, vec);
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

    const auto snapshot = DatabaseSnapshot::Make(db, 1, nullptr);
    const Database& shared = snapshot->db();
    for (int round = 0; round < 8; ++round) {
      const RAExprPtr plan = RandomPlan(rng, db, plan_cfg).plan;
      ExpectMatchesReference(plan, db);
      ExpectMatchesReference(plan, shared);
    }
    // A base relation of the snapshot beside a literal of its own
    // dictionary: union, difference and join merge the two.
    for (const std::string& name : db.schema().RelationNames()) {
      const Relation& base = shared.GetRelation(name);
      ASSERT_EQ(base.Columnar()->dict_ptr(), snapshot->dict()) << name;
      Relation lit(base.arity());
      lit.Add(Tuple(std::vector<Value>(base.arity(), Value::Str("lit"))));
      if (!base.empty()) lit.Add(base.tuples().front());
      const RAExprPtr scan = RAExpr::Scan(name);
      const RAExprPtr literal = RAExpr::ConstRel(lit);
      ExpectMatchesReference(RAExpr::Union(scan, literal), shared);
      ExpectMatchesReference(RAExpr::Diff(scan, literal), shared);
      ExpectMatchesReference(RAExpr::Intersect(literal, scan), shared);
      ExpectMatchesReference(
          RAExpr::Select(Predicate::Cmp(CmpOp::kEq, Term::Column(0),
                                        Term::Column(base.arity())),
                         RAExpr::Product(scan, literal)),
          shared);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorizedPlanSweep,
                         ::testing::Range<uint64_t>(0, 10));

Tuple Row(Value a, Value b) { return Tuple{std::move(a), std::move(b)}; }

// L(a, b) ⋈ R(c, d) with the given rows; R is the join's build side.
Database JoinDb(const std::vector<Tuple>& l, const std::vector<Tuple>& r) {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("L", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("R", {"c", "d"}).ok());
  Database db(schema);
  for (const Tuple& t : l) db.AddTuple("L", t);
  for (const Tuple& t : r) db.AddTuple("R", t);
  return db;
}

TEST(VectorizedJoinTest, BuildSideEdgeCasesMatchReference) {
  std::vector<Tuple> probe;
  for (int64_t i = 0; i < 12; ++i) {
    probe.push_back(Row(Value::Int(i), Value::Int(i % 3)));
  }
  probe.push_back(Row(Value::Null(1), Value::Int(1)));
  probe.push_back(Row(Value::Int(4), Value::Null(2)));
  std::vector<Tuple> one_key;  // every build row on key 1
  for (int64_t i = 0; i < 20; ++i) {
    one_key.push_back(Row(Value::Int(1), Value::Int(i)));
  }
  std::vector<Tuple> two_col;  // matches L on (a, b) for some rows
  for (int64_t i = 0; i < 16; ++i) {
    two_col.push_back(Row(Value::Int(i % 8), Value::Int(i % 3)));
  }
  two_col.push_back(Row(Value::Null(1), Value::Int(1)));

  const Database dbs[] = {
      JoinDb(probe, {Row(Value::Int(1), Value::Int(7))}),  // one bucket
      JoinDb(probe, one_key),
      JoinDb({}, one_key),                                 // empty probe side
      JoinDb(probe, {}),                                   // empty build side
      JoinDb(probe, two_col),
  };
  auto product = [] {
    return RAExpr::Product(RAExpr::Scan("L"), RAExpr::Scan("R"));
  };
  auto eq = [](size_t a, size_t b) {
    return Predicate::Eq(Term::Column(a), Term::Column(b));
  };
  for (const Database& db : dbs) {
    const RAExprPtr plans[] = {
        RAExpr::Select(eq(1, 2), product()),
        RAExpr::Project({3, 0}, RAExpr::Select(eq(1, 2), product())),
        // A two-column key.
        RAExpr::Select(Predicate::And(eq(0, 2), eq(1, 3)), product()),
        RAExpr::Project({1},
                        RAExpr::Select(Predicate::And(eq(0, 2), eq(1, 3)),
                                       product())),
    };
    for (const RAExprPtr& plan : plans) ExpectMatchesReference(plan, db);
  }
}

// R0 holds 3 000 null-free rows plus two with nulls, so its kernels span
// two batches; R1 is small and shares 0..6 with R0's second column.
Database CounterDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R0", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("R1", {"c", "d"}).ok());
  Database db(schema);
  for (int64_t i = 0; i < 3000; ++i) {
    db.AddTuple("R0", Tuple{Value::Int(i % 1000), Value::Int(i % 7)});
  }
  db.AddTuple("R0", Tuple{Value::Null(1), Value::Int(3)});
  db.AddTuple("R0", Tuple{Value::Int(5), Value::Null(2)});
  for (int64_t i = 0; i < 40; ++i) {
    db.AddTuple("R1", Tuple{Value::Int(i % 7), Value::Int(i % 3)});
  }
  db.AddTuple("R1", Tuple{Value::Null(1), Value::Int(0)});
  return db;
}

TEST(VectorizedStatsTest, CountsBatchesAndRowsOnTheColumnarEngineOnly) {
  // Exact work counters of the columnar kernels on a fixed instance: how
  // the kernels order, hash or deduplicate rows must not change them.
  const Database db = CounterDb();
  auto join = [] {
    return RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                          RAExpr::Product(RAExpr::Scan("R0"),
                                          RAExpr::Scan("R1")));
  };
  struct Expected {
    RAExprPtr plan;
    uint64_t probes, tuples_in, tuples_out, rows_vectorized, batches;
  };
  // Scans count rows out only; the join counts one probe per R0 row; every
  // kernel counts its input rows once, in ceil(rows / 2048) batches.
  const Expected cases[] = {
      {RAExpr::Project({0, 3}, join()), 3002, 3024, 6027, 3024, 2},
      {join(), 3002, 3024, 12027, 3024, 2},
      {RAExpr::Project({1, 0}, RAExpr::Scan("R0")), 0, 3002, 6004, 3002, 2},
      {RAExpr::Diff(RAExpr::Scan("R0"), RAExpr::Scan("R1")), 0, 3024, 6017,
       3024, 2},
      {RAExpr::Intersect(RAExpr::Scan("R0"), RAExpr::Scan("R1")), 0, 3024,
       3033, 3024, 2},
  };
  for (const Expected& c : cases) {
    EvalStats stats;
    EvalOptions vec;
    vec.stats = &stats;
    vec.num_threads = 1;
    vec.optimize = false;
    ASSERT_TRUE(EvalNaive(c.plan, db, vec).ok());
    const std::string label = c.plan->ToString();
    EXPECT_EQ(stats.TotalProbes(), c.probes) << label;
    EXPECT_EQ(stats.TotalTuplesIn(), c.tuples_in) << label;
    EXPECT_EQ(stats.TotalTuplesOut(), c.tuples_out) << label;
    EXPECT_EQ(stats.rows_vectorized(), c.rows_vectorized) << label;
    EXPECT_EQ(stats.batches_processed(), c.batches) << label;
  }

  auto q = RAExpr::Project({0, 3}, join());
  EvalStats vec_stats;
  EvalOptions vec;
  vec.stats = &vec_stats;
  vec.num_threads = 1;
  ASSERT_TRUE(EvalNaive(q, db, vec).ok());
  // The counters reach the printed table.
  EXPECT_NE(vec_stats.ToString().find("vectorized"), std::string::npos);

  // The nested-loop reference stays tuple-at-a-time.
  EvalStats ref_stats;
  ASSERT_TRUE(EvalNaiveReference(q, db, &ref_stats).ok());
  EXPECT_EQ(ref_stats.batches_processed(), 0u);
  EXPECT_EQ(ref_stats.rows_vectorized(), 0u);
}

TEST(VectorizedStatsTest, PinsTheThreeValuedKernels) {
  // Eval3VL's served path on the same instance: the Kleene σ, the join
  // that skips null keys, − by null-pattern lookup, ∩ and ÷ over null-free
  // rows. Every counter is the same at 1 and 4 threads.
  const Database db = CounterDb();
  const RAExprPtr r0 = RAExpr::Scan("R0");
  const RAExprPtr r1 = RAExpr::Scan("R1");
  struct Expected {
    RAExprPtr plan;
    uint64_t probes, tuples_in, tuples_out, rows_vectorized, batches;
  };
  // Scans count rows out only, as under naïve logic.
  const Expected cases[] = {
      // σ[b = 3 OR NOT(a < 500)](R0): one mask pass over 3 002 rows keeps
      // 1 714 — (⊥1, 3) is TRUE by its b, (5, ⊥2) UNKNOWN.
      {RAExpr::Select(
           Predicate::Or(
               Predicate::Eq(Term::Column(1), Term::Const(Value::Int(3))),
               Predicate::Not(Predicate::Cmp(CmpOp::kLt, Term::Column(0),
                                             Term::Const(Value::Int(500))))),
           r0),
       0, 3002, 4716, 3002, 2},
      // R0 ⋈[a = c] R1: (⊥1, 3) neither probes nor meets R1's ⊥1, so 66
      // rows come out where naïve evaluation gives 67.
      {RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Column(2)),
                      RAExpr::Product(r0, r1)),
       3001, 3024, 3090, 3024, 2},
      // R1's groups: (⊥1, 0), keyed on b, then the 21 null-free rows. R0's
      // 3 000 null-free rows probe the first (429 with b = 0 go) and 2 571
      // the second (6 go); (⊥1, 3) probes both and stays; (5, ⊥2) shares
      // no filled position with (⊥1, 0) and goes without a probe.
      {RAExpr::Diff(r0, r1), 5573, 3024, 5590, 3024, 2},
      // The null-free filter reads R0 (3 002 rows), the merge 3 000 + 22.
      {RAExpr::Intersect(r0, r1), 0, 3024, 3033, 6024, 4},
      // The null-free filter reads R0, and its 3 000 null-free rows are
      // divided by proj{1}(R1) = {0, 1, 2} (143 heads).
      {RAExpr::Divide(r0, RAExpr::Project({1}, r1)), 3000, 3027, 3170, 6027,
       5},
  };
  for (const Expected& c : cases) {
    const std::string label = c.plan->ToString();
    for (int threads : {1, 4}) {
      EvalStats stats;
      EvalOptions vec;
      vec.stats = &stats;
      vec.num_threads = threads;
      vec.parallel_row_threshold = 2;
      ASSERT_TRUE(Eval3VL(c.plan, db, vec).ok()) << label;
      EXPECT_EQ(stats.TotalProbes(), c.probes) << label << " @" << threads;
      EXPECT_EQ(stats.TotalTuplesIn(), c.tuples_in) << label << " @" << threads;
      EXPECT_EQ(stats.TotalTuplesOut(), c.tuples_out)
          << label << " @" << threads;
      EXPECT_EQ(stats.rows_vectorized(), c.rows_vectorized)
          << label << " @" << threads;
      EXPECT_EQ(stats.batches_processed(), c.batches)
          << label << " @" << threads;
    }
  }
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
