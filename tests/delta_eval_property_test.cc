// Property tests for the delta-evaluation layer. Every plan, Δ included,
// runs through the delta evaluator along the Gray chains of the enumeration
// backend, and its certain and possible answers must equal the oracle's
// reference (testing/oracle.h: eq. (1) evaluated world by world with nested
// loops) at every thread count.
//
//  * The SQL sweep drives the shapes the SQL surface produces (join,
//    negation, selection, scan) through the QueryEngine.
//  * The RA sweeps drive what it does not: division (whose delta rule keeps
//    per-head counters), ∪ / ∩ / −, and Δ, whose node moves one count per
//    step between (old, old) and (new, new).
//  * The exact probability table of the enumeration backend, counted along
//    one Gray chain, must equal a per-world count over the reference.
//  * Literals and selection constants reach the evaluator's one dictionary
//    per query: a literal holding a null or a value outside the world
//    domain, and selection constants outside it under every comparison,
//    must answer like the reference on instances with and without strings.
//    The same plans run on the engines that evaluate a plan once — the
//    columnar engine under naïve logic and 3VL against the nested loop and
//    the tuple fold, and the c-table backend against the reference — since
//    all of them compile σ's constants with one CompilePred
//    (engine/kernels.h).
//  * DeltaOperatorTest.PinsStepCounters pins the evaluator's exact work
//    counters on a fixed instance shaped like the certain_enum workload.
// The non-enumeration notions are covered across thread counts by
// ParallelEvalSweep (parallel_eval_property_test.cc).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "algebra/certain.h"
#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "algebra/parser.h"
#include "counting/probabilistic.h"
#include "ctables/ctable_algebra.h"
#include "engine/query_engine.h"
#include "engine/world_encoding.h"
#include "testing/oracle.h"
#include "workload/generators.h"

namespace incdb {
namespace {

// Random tables under a named schema so SQL queries can run. Small domain +
// low null density keeps the world count tractable: fresh_constants is
// pinned to 1 below, so worlds ≤ (3 + 1)^#nulls. Odd seeds mix strings
// among the integers, so the query dictionary spans both kinds; their
// domain holds up to 3 + 3 + 1 values, so they keep at most 3 nulls.
Database NamedRandomDb(uint64_t seed) {
  RandomDbConfig cfg;
  cfg.arities = {2, 2};
  cfg.rows_per_relation = 5;
  cfg.domain_size = 3;
  cfg.null_density = 0.15;
  cfg.null_reuse = 0.5;
  if (seed % 2 == 1) {
    cfg.string_density = 0.3;
    cfg.max_nulls = 3;
  }
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

WorldEnumOptions OneFreshConstant() {
  WorldEnumOptions opts;
  opts.fresh_constants = 1;
  return opts;
}

// CertainAnswersEnum and PossibleAnswersEnum at 1, 2 and 7 threads against
// the reference; when the reference refuses, every run must refuse with the
// same code.
void ExpectEnumMatchesReference(const RAExprPtr& q, const Database& db,
                                const WorldEnumOptions& world_opts) {
  const auto want_certain = ReferenceCertainAnswers(q, db, world_opts);
  const auto want_possible = ReferencePossibleAnswers(q, db, world_opts);
  for (int threads : {1, 2, 7}) {
    EvalOptions options;
    options.num_threads = threads;
    const std::string combo =
        q->ToString() + " @" + std::to_string(threads) + "\n" + db.ToString();
    const auto certain = CertainAnswersEnum(
        q, db, WorldSemantics::kClosedWorld, world_opts, options);
    const auto possible = PossibleAnswersEnum(q, db, world_opts, options);
    ASSERT_EQ(certain.ok(), want_certain.ok()) << combo;
    ASSERT_EQ(possible.ok(), want_possible.ok()) << combo;
    if (!want_certain.ok()) {
      EXPECT_EQ(certain.status().code(), want_certain.status().code())
          << combo;
    } else {
      EXPECT_EQ(*certain, *want_certain) << combo;
    }
    if (!want_possible.ok()) {
      EXPECT_EQ(possible.status().code(), want_possible.status().code())
          << combo;
    } else {
      EXPECT_EQ(*possible, *want_possible) << combo;
    }
  }
}

// The exact probability table of the enumeration backend against a count
// over the reference's worlds: the same tuples, each with probability
// hits / worlds to the last bit.
void ExpectExactProbabilitiesMatchReference(
    const RAExprPtr& q, const Database& db,
    const WorldEnumOptions& world_opts) {
  std::map<Tuple, uint64_t> hits;
  uint64_t worlds = 0;
  // The driver's world space: the plan's constants join the domain.
  const WorldEnumOptions space = WithQueryConstants(q, world_opts);
  ASSERT_TRUE(ForEachWorldCwa(db, space, [&](const Database& world) {
                ++worlds;
                Result<Relation> ans = EvalNaiveReference(q, world);
                EXPECT_TRUE(ans.ok()) << ans.status().ToString();
                if (!ans.ok()) return false;
                for (const Tuple& t : ans->tuples()) ++hits[t];
                return true;
              }).ok());

  std::vector<TupleProbability> table;
  const auto certain = CertainAnswersWithProbabilityEnum(
      q, db, WorldSemantics::kClosedWorld, ProbabilisticOptions{}, world_opts,
      {}, &table);
  ASSERT_TRUE(certain.ok()) << certain.status().ToString();
  ASSERT_EQ(table.size(), hits.size()) << q->ToString() << "\n"
                                       << db.ToString();
  size_t i = 0;
  for (const auto& [tuple, count] : hits) {
    EXPECT_EQ(table[i].tuple, tuple) << q->ToString();
    EXPECT_TRUE(table[i].exact);
    EXPECT_EQ(table[i].probability,
              static_cast<double>(count) / static_cast<double>(worlds))
        << tuple.ToString() << " in " << q->ToString();
    ++i;
  }
  const auto want_certain = ReferenceCertainAnswers(q, db, world_opts);
  ASSERT_TRUE(want_certain.ok()) << want_certain.status().ToString();
  EXPECT_EQ(*certain, *want_certain) << q->ToString();
}

// The Δ shapes, over the binary relation R0.
std::vector<RAExprPtr> DeltaPlans() {
  // σ_{#1 = #3}(Δ × R0): the R0 rows whose second value is in adom.
  auto delta_join = [] {
    return RAExpr::Select(Predicate::Eq(Term::Column(1), Term::Column(3)),
                          RAExpr::Product(RAExpr::Delta(), RAExpr::Scan("R0")));
  };
  return {
      RAExpr::Delta(),
      delta_join(),
      RAExpr::Diff(RAExpr::Project({0}, RAExpr::Scan("R0")),
                   RAExpr::Project({2}, delta_join())),
      RAExpr::Intersect(RAExpr::Project({0}, RAExpr::Delta()),
                        RAExpr::Project({0}, RAExpr::Scan("R0"))),
      // A divisor that holds Δ: {c : (c, c) ∈ Δ, c ∈ π1(R0)}.
      RAExpr::Divide(
          RAExpr::Scan("R0"),
          RAExpr::Project(
              {0}, RAExpr::Select(
                       Predicate::Eq(Term::Column(1), Term::Column(2)),
                       RAExpr::Product(RAExpr::Delta(),
                                       RAExpr::Project({1},
                                                       RAExpr::Scan("R0")))))),
  };
}

// ⊥0 ranges over {1, 2, 3, fresh}: it lands on each constant of R0 in turn,
// and (c, c) must stay in Δ when it moves off c, because c still occurs.
Database NullLandsOnConstantsDb() {
  Database db;
  db.AddTuple("R0", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("R0", Tuple{Value::Null(0), Value::Int(3)});
  db.AddTuple("R0", Tuple{Value::Int(3), Value::Int(1)});
  return db;
}

// ⊥0 and ⊥1 collide whenever they are bound to the same value: (c, c) then
// carries two null derivations, and one null moving away must not drop it.
Database CollidingNullsDb() {
  Database db;
  db.AddTuple("R0", Tuple{Value::Null(0), Value::Int(5)});
  db.AddTuple("R0", Tuple{Value::Null(1), Value::Null(0)});
  db.AddTuple("R0", Tuple{Value::Int(5), Value::Null(1)});
  return db;
}

const std::vector<std::string>& SweepQueries() {
  static const std::vector<std::string> queries = {
      "SELECT a, d FROM R0, R1 WHERE b = c",
      "SELECT a FROM R0 WHERE a NOT IN (SELECT c FROM R1)",
      "SELECT a FROM R0 WHERE b = 1",
      "SELECT * FROM R1",
  };
  return queries;
}

class DeltaEvalSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEvalSweep, SqlEnumerationNotionsMatchTheReference) {
  Database db = NamedRandomDb(GetParam());
  QueryEngine engine(db);
  for (const std::string& sql : SweepQueries()) {
    for (AnswerNotion notion :
         {AnswerNotion::kCertainEnum, AnswerNotion::kPossible}) {
      QueryRequest req;
      req.input = QueryInput::SqlText(sql);
      req.notion = notion;
      req.world_options = OneFreshConstant();
      for (int threads : {1, 7}) {
        req.eval.num_threads = threads;
        const std::string combo = std::string(AnswerNotionName(notion)) +
                                  " @" + std::to_string(threads) + ": " + sql;
        auto got = engine.Run(req);
        ASSERT_TRUE(got.ok()) << combo << ": " << got.status().ToString();
        ASSERT_NE(got->plan, nullptr) << combo;
        auto want = notion == AnswerNotion::kCertainEnum
                        ? ReferenceCertainAnswers(got->plan, db,
                                                  req.world_options)
                        : ReferencePossibleAnswers(got->plan, db,
                                                   req.world_options);
        ASSERT_TRUE(want.ok()) << combo << ": " << want.status().ToString();
        EXPECT_EQ(got->relation, *want) << combo << "\n" << db.ToString();
      }
    }
  }
}

TEST_P(DeltaEvalSweep, DivisionPlansMatchTheReference) {
  Database db = NamedRandomDb(GetParam());
  // R0 ÷ π{1}(R1): division is outside the SQL surface, and its delta rule
  // (per-head derivation/match counters) only runs here.
  auto q = RAExpr::Divide(RAExpr::Scan("R0"),
                          RAExpr::Project({1}, RAExpr::Scan("R1")));
  ExpectEnumMatchesReference(q, db, OneFreshConstant());

  if (db.Nulls().size() >= 2) {
    // More worlds than Gray chains at either thread count: some world must
    // have been answered differentially.
    for (int threads : {1, 7}) {
      EvalStats stats;
      EvalOptions options;
      options.num_threads = threads;
      options.stats = &stats;
      ASSERT_TRUE(PossibleAnswersEnum(q, db, OneFreshConstant(), options).ok());
      EXPECT_GT(stats.delta_applied(), 0u) << threads << " threads";
    }
  }
}

TEST_P(DeltaEvalSweep, UnionAndIntersectionPlansMatchTheReference) {
  Database db = NamedRandomDb(GetParam());
  // ∪ / ∩ / − compose set memberships; drive them directly since the SQL
  // sweep only reaches − (through NOT IN).
  const std::vector<RAExprPtr> plans = {
      RAExpr::Union(RAExpr::Scan("R0"), RAExpr::Scan("R1")),
      RAExpr::Intersect(RAExpr::Scan("R0"), RAExpr::Scan("R1")),
      RAExpr::Diff(RAExpr::Project({0}, RAExpr::Scan("R0")),
                   RAExpr::Project({1}, RAExpr::Scan("R1"))),
  };
  for (const RAExprPtr& q : plans) {
    ExpectEnumMatchesReference(q, db, OneFreshConstant());
  }
}

TEST_P(DeltaEvalSweep, DeltaPlansMatchTheReference) {
  Database db = NamedRandomDb(GetParam());
  for (const RAExprPtr& q : DeltaPlans()) {
    ExpectEnumMatchesReference(q, db, OneFreshConstant());
    ExpectExactProbabilitiesMatchReference(q, db, OneFreshConstant());
  }
}

// The engines that run a plan once, on the same plan: EvalNaive on the
// columnar engine against the nested loop, Eval3VL on it against the tuple
// fold, and the c-table backend's certain and possible answers against the
// reference. The c-table backend may refuse only an order comparison that
// meets a null, which its condition language lacks.
void ExpectSingleRunEnginesMatchTheReference(
    const RAExprPtr& q, const Database& db,
    const WorldEnumOptions& world_opts) {
  const std::string where = q->ToString() + "\n" + db.ToString();
  const auto naive = EvalNaive(q, db);
  const auto naive_ref = EvalNaiveReference(q, db);
  ASSERT_TRUE(naive.ok() && naive_ref.ok()) << where;
  EXPECT_EQ(*naive, *naive_ref) << "naive: " << where;
  const auto tvl = Eval3VL(q, db);
  const auto tvl_ref = Eval3VLReference(q, db);
  ASSERT_TRUE(tvl.ok() && tvl_ref.ok()) << where;
  EXPECT_EQ(*tvl, *tvl_ref) << "3vl: " << where;

  auto refused = [](const Status& st) {
    return st.code() == StatusCode::kUnsupported &&
           st.message().find("order comparison on nulls") != std::string::npos;
  };
  const auto want_certain = ReferenceCertainAnswers(q, db, world_opts);
  const auto want_possible = ReferencePossibleAnswers(q, db, world_opts);
  ASSERT_TRUE(want_certain.ok() && want_possible.ok()) << where;
  const auto certain = CertainAnswersCTable(
      q, db, WorldSemantics::kClosedWorld, world_opts);
  const auto possible = PossibleAnswersCTable(q, db, world_opts);
  if (certain.ok()) {
    EXPECT_EQ(*certain, *want_certain) << "ctable certain: " << where;
  } else {
    EXPECT_TRUE(refused(certain.status()))
        << certain.status().ToString() << "\n" << where;
  }
  if (possible.ok()) {
    EXPECT_EQ(*possible, *want_possible) << "ctable possible: " << where;
  } else {
    EXPECT_TRUE(refused(possible.status()))
        << possible.status().ToString() << "\n" << where;
  }
}

TEST_P(DeltaEvalSweep, LiteralsAndOutOfDomainConstantsMatchTheReference) {
  Database db = NamedRandomDb(GetParam());
  std::vector<std::string> plans = {
      // A literal row with a null and a constant outside the world domain:
      // both join the query dictionary, and the null is no null of D.
      "R0 U {(_9, 99)}",
      "R0 - {(_9, 99)}",
      // Joins against a literal whose values the domain lacks.
      "sel[#0 = #2](R0 x {('x', 99)})",
      "proj{0,3}(sel[#1 < #3](R0 x {('x', 99)}))",
  };
  // Selection constants under every comparison: two that the domain
  // usually holds, and four outside it — below every value, past the
  // integers (ints sort before strings), between two strings and above
  // every value.
  for (const char* op : {"=", "!=", "<", "<=", ">", ">="}) {
    for (const char* c : {"1", "'s1'", "-5", "7", "'s1a'", "'zz'"}) {
      plans.push_back(std::string("sel[#1 ") + op + " " + c + "](R0)");
    }
  }
  for (const std::string& text : plans) {
    const Result<RAExprPtr> q = ParseRA(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    ExpectEnumMatchesReference(*q, db, OneFreshConstant());
    ExpectExactProbabilitiesMatchReference(*q, db, OneFreshConstant());
    ExpectSingleRunEnginesMatchTheReference(*q, db, OneFreshConstant());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaEvalSweep,
                         ::testing::Range<uint64_t>(0, 12));

TEST(DeltaOperatorTest, NullLandingOnAConstantKeepsItsDiagonalPair) {
  const Database db = NullLandsOnConstantsDb();
  for (const RAExprPtr& q : DeltaPlans()) {
    ExpectEnumMatchesReference(q, db, {});
    ExpectExactProbabilitiesMatchReference(q, db, {});
  }
}

TEST(DeltaOperatorTest, CollidingNullsKeepTheirDiagonalPair) {
  const Database db = CollidingNullsDb();
  for (const RAExprPtr& q : DeltaPlans()) {
    ExpectEnumMatchesReference(q, db, {});
    ExpectExactProbabilitiesMatchReference(q, db, {});
  }
}

TEST(DeltaOperatorTest, OneChainAppliesADeltaPerWorldWithoutFallbacks) {
  // σ_{#1 = #3}(Δ × R0) at one thread: one Gray chain, the first world
  // initializes the evaluator and every later world is one ApplyDelta. The
  // complete rows keep each step's transitions below the join's inputs, so
  // no node recomputes either.
  Database db;
  for (int64_t i = 1; i <= 4; ++i) {
    db.AddTuple("R0", Tuple{Value::Int(i), Value::Int(i % 4 + 1)});
  }
  db.AddTuple("R0", Tuple{Value::Int(1), Value::Null(0)});
  db.AddTuple("R0", Tuple{Value::Null(1), Value::Int(2)});
  const RAExprPtr q = DeltaPlans()[1];
  const uint64_t worlds = CountWorldsCwa(db, {});
  EvalOptions options;
  options.num_threads = 1;

  EvalStats possible_stats;
  options.stats = &possible_stats;
  ASSERT_TRUE(PossibleAnswersEnum(q, db, {}, options).ok());
  EXPECT_EQ(possible_stats.delta_applied(), worlds - 1);
  EXPECT_EQ(possible_stats.delta_fallbacks(), 0u);

  // The exact probability path walks the same single chain.
  EvalStats prob_stats;
  options.stats = &prob_stats;
  ASSERT_TRUE(CertainAnswersWithProbabilityEnum(
                  q, db, WorldSemantics::kClosedWorld, ProbabilisticOptions{},
                  {}, options)
                  .ok());
  EXPECT_EQ(prob_stats.worlds_counted(), worlds);
  EXPECT_EQ(prob_stats.delta_applied(), worlds - 1);
  EXPECT_EQ(prob_stats.delta_fallbacks(), 0u);
}

// The non-zero per-operator counters, one "op calls in out probes" line
// each, then the evaluator's and the counting driver's own counters.
std::string StepCounters(const EvalStats& s) {
  std::string out;
  char line[160];
  for (size_t k = 0; k < kNumEvalOps; ++k) {
    const OpCounters& c = s.at(static_cast<EvalOp>(k));
    if (c.calls == 0 && c.tuples_in == 0 && c.tuples_out == 0 &&
        c.probes == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "%s %llu %llu %llu %llu\n",
                  EvalOpName(static_cast<EvalOp>(k)),
                  static_cast<unsigned long long>(c.calls),
                  static_cast<unsigned long long>(c.tuples_in),
                  static_cast<unsigned long long>(c.tuples_out),
                  static_cast<unsigned long long>(c.probes));
    out += line;
  }
  std::snprintf(line, sizeof(line), "applied %llu fallbacks %llu worlds %llu",
                static_cast<unsigned long long>(s.delta_applied()),
                static_cast<unsigned long long>(s.delta_fallbacks()),
                static_cast<unsigned long long>(s.worlds_counted()));
  return out + line;
}

TEST(DeltaOperatorTest, PinsStepCounters) {
  // Order(o_id, product) and Pay(p_id, order_id, amount) with two Codd
  // nulls among the paid order ids, as in the certain_enum workload: the
  // domain is the 9 constants plus 2 fresh ones, so 121 worlds. The null
  // ids are sparse, so a null's id is not its slot in the world space.
  Database db;
  for (int64_t o = 1; o <= 6; ++o) {
    db.AddTuple("Order", Tuple{Value::Int(o), Value::Int((o + 1) / 2)});
  }
  db.AddTuple("Pay", Tuple{Value::Int(1), Value::Int(1), Value::Int(10)});
  db.AddTuple("Pay", Tuple{Value::Int(2), Value::Null(3), Value::Int(20)});
  db.AddTuple("Pay", Tuple{Value::Int(3), Value::Int(3), Value::Int(10)});
  db.AddTuple("Pay", Tuple{Value::Int(4), Value::Null(7), Value::Int(30)});
  db.AddTuple("Pay", Tuple{Value::Int(5), Value::Int(5), Value::Int(20)});
  ASSERT_EQ(CountWorldsCwa(db, {}), 121u);

  struct Expected {
    const char* plan;
    // Possible answers at 1 and 4 threads (every chain walks its whole
    // range), and the exact probability table's one chain.
    const char* possible1;
    const char* possible4;
    const char* probability;
  };
  const Expected cases[] = {
      // The certain_enum join: the Pay scan steps, the fused join probes
      // the Order mirror once per Pay transition.
      {"proj{1}(sel[#0 = #3](Order x Pay))",
       "scan 122 131 251 0\nhash-join 121 251 3 246\n"
       "applied 120 fallbacks 0 worlds 0",
       "scan 125 161 278 0\nhash-join 121 278 12 258\n"
       "applied 117 fallbacks 0 worlds 0",
       "scan 122 131 251 0\nhash-join 121 251 3 246\n"
       "applied 120 fallbacks 0 worlds 121"},
      // Its difference: − re-derives membership for the flipped rows only.
      {"proj{0}(Order) - proj{1}(Pay)",
       "scan 122 131 251 0\nproject 122 251 174 0\ndiff 121 174 69 171\n"
       "applied 120 fallbacks 0 worlds 0",
       "scan 125 161 278 0\nproject 125 278 194 0\ndiff 121 194 73 179\n"
       "applied 117 fallbacks 0 worlds 0",
       "scan 122 131 251 0\nproject 122 251 174 0\ndiff 121 174 69 171\n"
       "applied 120 fallbacks 0 worlds 121"},
      // A fixed divisor: ÷ steps its per-head counters.
      {"proj{2,1}(Pay) / proj{0}(sel[#0 = 1](Order))",
       "scan 122 131 251 0\nselect 1 6 1 0\nproject 122 246 224 0\n"
       "divide 121 224 15 223\napplied 120 fallbacks 0 worlds 0",
       "scan 125 161 278 0\nselect 4 24 4 0\nproject 125 258 236 0\n"
       "divide 121 236 24 232\napplied 117 fallbacks 0 worlds 0",
       "scan 122 131 251 0\nselect 1 6 1 0\nproject 122 246 224 0\n"
       "divide 121 224 15 223\napplied 120 fallbacks 0 worlds 121"},
      // A divisor that moves with the nulls: ÷ recomputes on those steps.
      {"proj{1,0}(Order) / proj{1}(Pay)",
       "scan 122 131 251 0\nproject 122 251 174 0\ndivide 236 1372 0 696\n"
       "applied 120 fallbacks 115 worlds 0",
       "scan 125 161 278 0\nproject 125 278 194 0\ndivide 232 1352 0 690\n"
       "applied 117 fallbacks 111 worlds 0",
       "scan 122 131 251 0\nproject 122 251 174 0\ndivide 236 1372 0 696\n"
       "applied 120 fallbacks 115 worlds 121"},
      // Δ moves one count per step between (old, old) and (new, new).
      {"sel[#0 = #3](delta x Pay)",
       "scan 121 125 245 0\nhash-join 121 287 245 282\ndelta 121 0 42 0\n"
       "applied 120 fallbacks 0 worlds 0",
       "scan 121 137 254 0\nhash-join 121 322 254 302\ndelta 121 0 68 0\n"
       "applied 117 fallbacks 0 worlds 0",
       "scan 121 125 245 0\nhash-join 121 287 245 282\ndelta 121 0 42 0\n"
       "applied 120 fallbacks 0 worlds 121"},
  };
  for (const Expected& c : cases) {
    const Result<RAExprPtr> q = ParseRA(c.plan);
    ASSERT_TRUE(q.ok()) << c.plan << ": " << q.status().ToString();
    for (int threads : {1, 4}) {
      EvalStats stats;
      EvalOptions options;
      options.num_threads = threads;
      options.stats = &stats;
      ASSERT_TRUE(PossibleAnswersEnum(*q, db, {}, options).ok()) << c.plan;
      EXPECT_EQ(StepCounters(stats), threads == 1 ? c.possible1 : c.possible4)
          << c.plan << " @" << threads;
    }
    EvalStats stats;
    EvalOptions options;
    options.stats = &stats;
    ASSERT_TRUE(CertainAnswersWithProbabilityEnum(
                    *q, db, WorldSemantics::kClosedWorld,
                    ProbabilisticOptions{}, {}, options)
                    .ok())
        << c.plan;
    EXPECT_EQ(StepCounters(stats), c.probability) << c.plan;
  }
}

}  // namespace
}  // namespace incdb
