// Randomized property tests for the parallel execution layer: for seeded
// random databases with marked nulls, every answer notion the QueryEngine
// serves must return a bit-identical relation at num_threads ∈ {1, 2, 7}.
// `parallel_row_threshold` is dropped to 1 so even the tiny test relations
// take the chunked columnar loops, and the enumeration notions
// (certain-enum, possible) exercise the parallel world drivers.
//
// A second test runs EvalNaive on relations large enough to span several
// chunks, so the chunk-merge path itself is covered (the QueryEngine
// sweep's relations fit in one chunk and run inline).
//
// The EnumerationDriverTest cases run fixed plan shapes — operators beside
// a complete relation, and user-written literals — through both enumeration
// drivers at every thread count against the nested-loop reference.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algebra/certain.h"
#include "algebra/eval.h"
#include "engine/query_engine.h"
#include "workload/generators.h"

namespace incdb {
namespace {

// Random tables under a named schema so SQL queries (and hence kMaybe) can
// run. Small domain + low null density keeps the world count tractable:
// fresh_constants is pinned to 1 below, so worlds ≤ (3 + 1)^#nulls.
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

// SQL queries covering join, negation (outside the certain-naive fragment),
// projection/union shape, and a plain scan.
const std::vector<std::string>& SweepQueries() {
  static const std::vector<std::string> queries = {
      "SELECT a, d FROM R0, R1 WHERE b = c",
      "SELECT a FROM R0 WHERE a NOT IN (SELECT c FROM R1)",
      "SELECT a FROM R0 WHERE b = 1",
      "SELECT * FROM R1",
  };
  return queries;
}

constexpr AnswerNotion kAllNotions[] = {
    AnswerNotion::kNaive,       AnswerNotion::k3VL,
    AnswerNotion::kMaybe,       AnswerNotion::kCertainNaive,
    AnswerNotion::kCertainEnum, AnswerNotion::kCertainObject,
    AnswerNotion::kPossible,
};

class ParallelEvalSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEvalSweep, EveryNotionIsBitIdenticalAcrossThreadCounts) {
  Database db = NamedRandomDb(GetParam());
  QueryEngine engine(db);
  for (const std::string& sql : SweepQueries()) {
    for (AnswerNotion notion : kAllNotions) {
      QueryRequest serial;
      serial.input = QueryInput::SqlText(sql);
      serial.notion = notion;
      serial.world_options.fresh_constants = 1;
      serial.eval.num_threads = 1;
      auto base = engine.Run(serial);

      for (int threads : {2, 7}) {
        QueryRequest req = serial;
        req.eval.num_threads = threads;
        req.eval.parallel_row_threshold = 1;  // force the chunked loops
        auto got = engine.Run(req);
        if (!base.ok()) {
          // e.g. kCertainNaive refusing the NOT IN query: the parallel run
          // must refuse identically.
          ASSERT_FALSE(got.ok()) << AnswerNotionName(notion) << ": " << sql;
          EXPECT_EQ(got.status().code(), base.status().code());
          continue;
        }
        ASSERT_TRUE(got.ok())
            << AnswerNotionName(notion) << " @" << threads << ": " << sql
            << ": " << got.status().ToString();
        EXPECT_EQ(got->relation, base->relation)
            << AnswerNotionName(notion) << " @" << threads << " threads: "
            << sql << "\n" << db.ToString();
        EXPECT_EQ(got->naive_guarantee, base->naive_guarantee);
      }
    }
  }
}

TEST_P(ParallelEvalSweep, EnumerationDriversMatchOnRaQueries) {
  // Drive CertainAnswersEnum / PossibleAnswersEnum directly (RA path) and
  // check the parallel stats sink still accumulates.
  Database db = NamedRandomDb(GetParam());
  auto q = RAExpr::Project(
      {0, 3}, RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                             RAExpr::Product(RAExpr::Scan("R0"),
                                             RAExpr::Scan("R1"))));
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;

  EvalOptions serial;
  serial.num_threads = 1;
  EvalStats parallel_stats;
  EvalOptions parallel;
  parallel.num_threads = 7;
  parallel.stats = &parallel_stats;

  auto certain_serial = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld,
                                           world_opts, serial);
  auto certain_parallel = CertainAnswersEnum(
      q, db, WorldSemantics::kClosedWorld, world_opts, parallel);
  ASSERT_TRUE(certain_serial.ok()) << certain_serial.status().ToString();
  ASSERT_TRUE(certain_parallel.ok()) << certain_parallel.status().ToString();
  EXPECT_EQ(*certain_parallel, *certain_serial) << db.ToString();

  auto possible_serial = PossibleAnswersEnum(q, db, world_opts, serial);
  auto possible_parallel = PossibleAnswersEnum(q, db, world_opts, parallel);
  ASSERT_TRUE(possible_serial.ok()) << possible_serial.status().ToString();
  ASSERT_TRUE(possible_parallel.ok()) << possible_parallel.status().ToString();
  EXPECT_EQ(*possible_parallel, *possible_serial) << db.ToString();

  if (!db.Nulls().empty()) {
    // Per-worker stats were merged back into the caller's sink.
    EXPECT_GT(parallel_stats.TotalTuplesIn(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelEvalSweep,
                         ::testing::Range<uint64_t>(0, 12));

// R0 carries two nulls (its tuples differ across worlds); S is complete.
Database MixedDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R0", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"c", "d"}).ok());
  Database db(schema);
  db.AddTuple("R0", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("R0", Tuple{Value::Null(7), Value::Int(3)});
  db.AddTuple("R0", Tuple{Value::Int(4), Value::Null(8)});
  for (int64_t i = 0; i < 6; ++i) {
    db.AddTuple("S", Tuple{Value::Int(i), Value::Int(i + 10)});
  }
  return db;
}

// Only R0, with two nulls beside 54 complete rows. Worlds share no relation
// storage: copying a shared complete relation into every world would
// synchronize the workers through its reference count and hide from TSan a
// literal that two workers race on. The complete rows make each world long
// enough that the workers overlap in time.
Database LiteralDb() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R0", {"a", "b"}).ok());
  Database db(schema);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      if ((i * 8 + j) % 7 != 0) {
        db.AddTuple("R0", Tuple{Value::Int(i), Value::Int(j)});
      }
    }
  }
  db.AddTuple("R0", Tuple{Value::Null(7), Value::Int(3)});
  db.AddTuple("R0", Tuple{Value::Int(4), Value::Null(8)});
  return db;
}

// Runs both enumeration drivers at 1, 2 and 7 threads with delta
// evaluation on and off; every answer must equal the nested-loop serial
// reference. `make_plan` builds a fresh plan for every run, so no run sees
// literal state forced by an earlier one.
void ExpectDriversMatchReference(const std::function<RAExprPtr()>& make_plan,
                                 const Database& db) {
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;
  EvalOptions reference;
  reference.use_hash_kernels = false;
  reference.optimize = false;
  reference.delta_eval = false;
  reference.num_threads = 1;
  const std::string name = make_plan()->ToString();
  auto want_certain = CertainAnswersEnum(
      make_plan(), db, WorldSemantics::kClosedWorld, world_opts, reference);
  auto want_possible =
      PossibleAnswersEnum(make_plan(), db, world_opts, reference);
  ASSERT_TRUE(want_certain.ok()) << name << ": "
                                 << want_certain.status().ToString();
  ASSERT_TRUE(want_possible.ok()) << name << ": "
                                  << want_possible.status().ToString();

  for (bool delta : {false, true}) {
    for (int threads : {1, 2, 7}) {
      EvalOptions options;
      options.delta_eval = delta;
      options.num_threads = threads;
      const std::string combo = name + (delta ? " delta" : " nodelta") +
                                " @" + std::to_string(threads);
      auto certain = CertainAnswersEnum(
          make_plan(), db, WorldSemantics::kClosedWorld, world_opts, options);
      auto possible =
          PossibleAnswersEnum(make_plan(), db, world_opts, options);
      ASSERT_TRUE(certain.ok()) << combo << ": "
                                << certain.status().ToString();
      ASSERT_TRUE(possible.ok()) << combo << ": "
                                 << possible.status().ToString();
      EXPECT_EQ(*certain, *want_certain) << combo;
      EXPECT_EQ(*possible, *want_possible) << combo;
    }
  }
}

TEST(EnumerationDriverTest, ShapesBesideACompleteRelationMatchReference) {
  const Database db = MixedDb();
  const std::vector<std::function<RAExprPtr()>> plans = {
      // A join against the complete S.
      [] {
        return RAExpr::Project(
            {0, 3},
            RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                           RAExpr::Product(RAExpr::Scan("R0"),
                                           RAExpr::Scan("S"))));
      },
      [] {
        return RAExpr::Diff(RAExpr::Project({0}, RAExpr::Scan("R0")),
                            RAExpr::Project({0}, RAExpr::Scan("S")));
      },
      [] { return RAExpr::Union(RAExpr::Scan("R0"), RAExpr::Scan("S")); },
  };
  for (const auto& make_plan : plans) {
    ExpectDriversMatchReference(make_plan, db);
  }
}

TEST(EnumerationDriverTest, PlanLiteralsMatchReference) {
  // User-written literals. The drivers force their lazy state before the
  // workers fan out; under TSan an unforced literal read by two workers is
  // a reported race.
  const Database db = LiteralDb();
  auto literal = [](std::vector<Tuple> tuples) {
    return RAExpr::ConstRel(Relation(2, std::move(tuples)));
  };
  const std::vector<std::function<RAExprPtr()>> plans = {
      [&] {
        return RAExpr::Union(RAExpr::Scan("R0"),
                             literal({Tuple{Value::Int(1), Value::Int(2)}}));
      },
      [&] {
        return RAExpr::Project(
            {0, 3},
            RAExpr::Select(
                Predicate::Eq(Term::Column(1), Term::Column(2)),
                RAExpr::Product(
                    RAExpr::Scan("R0"),
                    literal({Tuple{Value::Int(2), Value::Int(20)},
                             Tuple{Value::Int(3), Value::Int(30)}}))));
      },
      [&] {
        return RAExpr::Diff(RAExpr::Scan("R0"),
                            literal({Tuple{Value::Int(1), Value::Int(2)},
                                     Tuple{Value::Int(3), Value::Int(3)}}));
      },
  };
  for (const auto& make_plan : plans) {
    ExpectDriversMatchReference(make_plan, db);
  }
}

// Relations wide enough that the columnar loops span several chunks, so the
// chunk-order merge actually runs.
TEST(ParallelKernelTest, LargeKernelsMatchSerialAcrossThreadCounts) {
  constexpr int64_t n = 5000;
  Database db;
  Relation* l = db.MutableRelation("L", 2);
  Relation* r = db.MutableRelation("R", 2);
  for (int64_t i = 0; i < n; ++i) {
    l->Add(Tuple{Value::Int(i), Value::Int(i % 97)});
    r->Add(Tuple{Value::Int(i % 97), Value::Int(i % 13)});
    if (i % 3 == 0) r->Add(Tuple{Value::Int(i), Value::Int(i % 13)});
  }
  const auto scan_l = RAExpr::Scan("L");
  const auto scan_r = RAExpr::Scan("R");
  const RAExprPtr plans[] = {
      // π_{0,3}(σ_{#1 = #2}(L × R)): the fused hash join.
      RAExpr::Project(
          {0, 3},
          RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(2)),
                         RAExpr::Product(scan_l, scan_r))),
      RAExpr::Diff(scan_l, scan_r),
      RAExpr::Intersect(scan_l, scan_r),
  };

  // The nested-loop reference would materialize the ~10⁷-row product for
  // the join, so the join's reference is written out here: R indexed by its
  // first column. − and ∩ run through the reference evaluator.
  std::map<Value, std::vector<Value>> r_tail_by_head;
  for (const Tuple& t : r->tuples()) r_tail_by_head[t[0]].push_back(t[1]);
  Relation join_want(2);
  for (const Tuple& t : l->tuples()) {
    auto it = r_tail_by_head.find(t[1]);
    if (it == r_tail_by_head.end()) continue;
    for (const Value& v : it->second) join_want.Add(Tuple{t[0], v});
  }
  EvalOptions reference;
  reference.use_hash_kernels = false;
  for (const RAExprPtr& plan : plans) {
    Result<Relation> want = plan == plans[0] ? Result<Relation>(join_want)
                                             : EvalNaive(plan, db, reference);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    EvalStats serial_stats;
    EvalOptions serial;
    serial.num_threads = 1;
    serial.stats = &serial_stats;
    auto base = EvalNaive(plan, db, serial);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(*base, *want) << plan->ToString();
    EXPECT_GT(serial_stats.batches_processed(), 1u) << plan->ToString();

    for (int threads : {2, 7}) {
      EvalStats stats;
      EvalOptions opts;
      opts.num_threads = threads;
      opts.parallel_row_threshold = 1;
      opts.stats = &stats;
      auto got = EvalNaive(plan, db, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *base) << plan->ToString() << " @" << threads;
      // Counter totals are deterministic: batches and rows count per kernel
      // invocation, however the loop was chunked.
      EXPECT_EQ(stats.rows_vectorized(), serial_stats.rows_vectorized())
          << plan->ToString() << " @" << threads;
      EXPECT_EQ(stats.batches_processed(), serial_stats.batches_processed())
          << plan->ToString() << " @" << threads;
    }
  }
}

}  // namespace
}  // namespace incdb
