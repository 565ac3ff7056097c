// Randomized property tests for the delta-evaluation layer: for seeded
// random databases with marked nulls, every answer notion the QueryEngine
// serves must return a bit-identical relation across delta_eval on/off ×
// serial/parallel. The enumeration notions (certain-enum, possible) are the
// ones whose execution actually changes — delta on walks the world space in
// Gray order and re-evaluates plans differentially — but the whole sweep
// runs to prove the knob is inert everywhere else.
//
// A second sweep drives CertainAnswersEnum / PossibleAnswersEnum directly on
// RA plans the SQL surface does not produce: division (whose delta rule
// keeps per-head counters) and Δ (which the delta evaluator rejects, taking
// the counted per-world fallback path).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/certain.h"
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

// SQL queries covering join, negation, selection, and a plain scan — the
// operator shapes whose delta rules differ.
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

class DeltaEvalSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEvalSweep, EveryNotionIsBitIdenticalAcrossAllKnobCombinations) {
  Database db = NamedRandomDb(GetParam());
  QueryEngine engine(db);
  for (const std::string& sql : SweepQueries()) {
    for (AnswerNotion notion : kAllNotions) {
      // Baseline: the pre-delta configuration (delta off, serial).
      QueryRequest baseline;
      baseline.input = QueryInput::SqlText(sql);
      baseline.notion = notion;
      baseline.world_options.fresh_constants = 1;
      baseline.eval.num_threads = 1;
      baseline.eval.delta_eval = false;
      auto base = engine.Run(baseline);

      for (bool delta : {false, true}) {
        for (int threads : {1, 7}) {
          QueryRequest req = baseline;
          req.eval.delta_eval = delta;
          req.eval.num_threads = threads;
          const std::string combo = std::string(AnswerNotionName(notion)) +
                                    (delta ? " delta" : " nodelta") + " @" +
                                    std::to_string(threads) + ": " + sql;
          auto got = engine.Run(req);
          if (!base.ok()) {
            // e.g. kCertainNaive refusing the NOT IN query: every combo
            // must refuse identically.
            ASSERT_FALSE(got.ok()) << combo;
            EXPECT_EQ(got.status().code(), base.status().code()) << combo;
            continue;
          }
          ASSERT_TRUE(got.ok()) << combo << ": " << got.status().ToString();
          EXPECT_EQ(got->relation, base->relation)
              << combo << "\n" << db.ToString();
          EXPECT_EQ(got->naive_guarantee, base->naive_guarantee) << combo;
        }
      }
    }
  }
}

TEST_P(DeltaEvalSweep, DivisionPlansMatchWithDeltaOnAndOff) {
  Database db = NamedRandomDb(GetParam());
  // R0 ÷ π{1}(R1): division is outside the SQL surface, and its delta rule
  // (per-head derivation/match counters) only runs here.
  auto q = RAExpr::Divide(RAExpr::Scan("R0"),
                          RAExpr::Project({1}, RAExpr::Scan("R1")));
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;

  EvalOptions off;
  off.num_threads = 1;
  off.delta_eval = false;

  for (int threads : {1, 7}) {
    EvalStats stats;
    EvalOptions on;
    on.num_threads = threads;
    on.delta_eval = true;
    on.stats = &stats;

    auto certain_off =
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, world_opts, off);
    auto certain_on =
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, world_opts, on);
    ASSERT_TRUE(certain_off.ok()) << certain_off.status().ToString();
    ASSERT_TRUE(certain_on.ok()) << certain_on.status().ToString();
    EXPECT_EQ(*certain_on, *certain_off) << threads << " threads\n"
                                         << db.ToString();

    auto possible_off = PossibleAnswersEnum(q, db, world_opts, off);
    auto possible_on = PossibleAnswersEnum(q, db, world_opts, on);
    ASSERT_TRUE(possible_off.ok()) << possible_off.status().ToString();
    ASSERT_TRUE(possible_on.ok()) << possible_on.status().ToString();
    EXPECT_EQ(*possible_on, *possible_off) << threads << " threads\n"
                                           << db.ToString();

    if (db.Nulls().size() >= 2) {
      // More worlds than Gray chains at either thread count: some world
      // must have been answered differentially.
      EXPECT_GT(stats.delta_applied(), 0u) << threads << " threads";
    }
  }
}

TEST_P(DeltaEvalSweep, DeltaOperatorFallsBackPerWorldAndStaysBitIdentical) {
  Database db = NamedRandomDb(GetParam());
  if (db.Nulls().empty()) return;
  // σ_{#0=#1}(Δ × π{0}(R0)) — the plan contains Δ, which the delta
  // evaluator rejects at Build time; the driver must take the classic
  // per-world path and count one fallback per world.
  auto q = RAExpr::Select(
      Predicate::Eq(Term::Column(0), Term::Column(2)),
      RAExpr::Product(RAExpr::Delta(), RAExpr::Project({0}, RAExpr::Scan("R0"))));
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;

  EvalOptions off;
  off.num_threads = 1;
  off.delta_eval = false;

  for (int threads : {1, 7}) {
    EvalStats stats;
    EvalOptions on;
    on.num_threads = threads;
    on.delta_eval = true;
    on.stats = &stats;

    auto base =
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, world_opts, off);
    auto got =
        CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, world_opts, on);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *base) << threads << " threads\n" << db.ToString();
    EXPECT_EQ(stats.delta_applied(), 0u) << threads << " threads";
    EXPECT_GT(stats.delta_fallbacks(), 0u) << threads << " threads";
  }
}

TEST_P(DeltaEvalSweep, UnionAndIntersectionPlansMatchWithDeltaOnAndOff) {
  Database db = NamedRandomDb(GetParam());
  // ∪ / ∩ / − compose set memberships; drive them directly since the SQL
  // sweep only reaches − (through NOT IN).
  const std::vector<RAExprPtr> plans = {
      RAExpr::Union(RAExpr::Scan("R0"), RAExpr::Scan("R1")),
      RAExpr::Intersect(RAExpr::Scan("R0"), RAExpr::Scan("R1")),
      RAExpr::Diff(RAExpr::Project({0}, RAExpr::Scan("R0")),
                   RAExpr::Project({1}, RAExpr::Scan("R1"))),
  };
  WorldEnumOptions world_opts;
  world_opts.fresh_constants = 1;

  EvalOptions off;
  off.num_threads = 1;
  off.delta_eval = false;

  for (const RAExprPtr& q : plans) {
    for (int threads : {1, 7}) {
      EvalOptions on;
      on.num_threads = threads;
      on.delta_eval = true;

      auto certain_off = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld,
                                            world_opts, off);
      auto certain_on = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld,
                                           world_opts, on);
      ASSERT_TRUE(certain_off.ok()) << certain_off.status().ToString();
      ASSERT_TRUE(certain_on.ok()) << certain_on.status().ToString();
      EXPECT_EQ(*certain_on, *certain_off)
          << q->ToString() << " @" << threads << "\n" << db.ToString();

      auto possible_off = PossibleAnswersEnum(q, db, world_opts, off);
      auto possible_on = PossibleAnswersEnum(q, db, world_opts, on);
      ASSERT_TRUE(possible_off.ok()) << possible_off.status().ToString();
      ASSERT_TRUE(possible_on.ok()) << possible_on.status().ToString();
      EXPECT_EQ(*possible_on, *possible_off)
          << q->ToString() << " @" << threads << "\n" << db.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaEvalSweep,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace incdb
