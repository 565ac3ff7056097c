// Bit-identity and scalability tests for the c-table-native certain/possible
// answer pipeline (ctables/ctable_algebra.h):
//
//  * CertainAnswersCTable == CertainAnswersEnum and PossibleAnswersCTable ==
//    PossibleAnswersEnum on random databases × random positive plans and on
//    hand-built fixtures (same WorldEnumOptions on both sides);
//  * the fused hash equi-join on codes (CTableQuery::Join) represents the
//    same world set as the unfused σ ∘ × it replaces;
//  * the OWA positivity guard matches the enumeration driver's;
//  * at 12+ nulls the enumeration backend exhausts its world budget while
//    the c-table backend still answers (the acceptance bar of the redesign);
//  * a relation literal's nulls are values, as in enumeration and eq. (1):
//    certain, possible and probability answers of both backends match the
//    reference on plans that mix literals with the instance, IS NULL
//    included (true on a literal's null only);
//  * the work counters of the join and the difference on an instance
//    shaped like the e2e certain_ctable workload are pinned.

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/certain.h"
#include "algebra/parser.h"
#include "counting/probabilistic.h"
#include "ctables/code_ctable.h"
#include "ctables/ctable_algebra.h"
#include "engine/kernels.h"
#include "engine/query_engine.h"
#include "testing/fuzz_gen.h"
#include "testing/oracle.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

WorldEnumOptions SmallWorlds() {
  WorldEnumOptions opts;
  opts.max_worlds = 2'000'000;
  return opts;
}

// Both backends, same options; the relation (canonical sorted/deduped
// storage) must compare equal. Enumeration intractability is a test bug at
// these sizes, so any status mismatch fails loudly.
void ExpectBitIdentical(const RAExprPtr& plan, const Database& db,
                        WorldSemantics semantics) {
  const WorldEnumOptions opts = SmallWorlds();
  EvalOptions eo;
  auto en_cert = CertainAnswersEnum(plan, db, semantics, opts, eo);
  auto ct_cert = CertainAnswersCTable(plan, db, semantics, opts, eo);
  ASSERT_EQ(en_cert.ok(), ct_cert.ok())
      << plan->ToString() << "\nenum: " << en_cert.status().ToString()
      << "\nctable: " << ct_cert.status().ToString();
  if (en_cert.ok()) {
    EXPECT_EQ(*en_cert, *ct_cert)
        << "certain answers differ for " << plan->ToString() << "\nenum:\n"
        << en_cert->ToString() << "\nctable:\n"
        << ct_cert->ToString() << "\ndb:\n"
        << db.ToString();
  }

  auto en_poss = PossibleAnswersEnum(plan, db, opts, eo);
  auto ct_poss = PossibleAnswersCTable(plan, db, opts, eo);
  ASSERT_EQ(en_poss.ok(), ct_poss.ok())
      << plan->ToString() << "\nenum: " << en_poss.status().ToString()
      << "\nctable: " << ct_poss.status().ToString();
  if (en_poss.ok()) {
    EXPECT_EQ(*en_poss, *ct_poss)
        << "possible answers differ for " << plan->ToString() << "\nenum:\n"
        << en_poss->ToString() << "\nctable:\n"
        << ct_poss->ToString() << "\ndb:\n"
        << db.ToString();
  }
}

TEST(CTableCertain, PaperFixtureBitIdentity) {
  // The running example: orders with an unknown customer, payments with an
  // unknown order reference.
  Database db;
  db.AddTuple("Ord", Tuple{Value::Int(1), Value::Str("ann")});
  db.AddTuple("Ord", Tuple{Value::Int(2), Value::Null(0)});
  db.AddTuple("Pay", Tuple{Value::Null(1), Value::Int(99)});
  db.AddTuple("Pay", Tuple{Value::Int(1), Value::Int(25)});

  auto ords = RAExpr::Scan("Ord");
  auto pays = RAExpr::Scan("Pay");
  // Paid orders: π_{0}(σ_{ord.id = pay.ord}(Ord × Pay)).
  auto paid = RAExpr::Project(
      {0}, RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Column(2)),
                          RAExpr::Product(ords, pays)));
  // Unpaid orders: π_{0}(Ord) − paid.
  auto unpaid = RAExpr::Diff(RAExpr::Project({0}, ords), paid);

  for (const RAExprPtr& q : {paid, unpaid, ords, RAExpr::Union(ords, pays)}) {
    ExpectBitIdentical(q, db, WorldSemantics::kClosedWorld);
  }
}

class CTableCertainSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CTableCertainSweep, RandomPlansBitIdentity) {
  Rng rng(GetParam());
  RandomDbConfig dbc;
  dbc.arities = {2, 2};
  dbc.rows_per_relation = 4;
  dbc.domain_size = 3;
  dbc.null_density = 0.3;
  dbc.null_reuse = 0.4;
  dbc.max_nulls = 3;  // keeps |domain|^#nulls within SmallWorlds()
  const Database db = MakeRandomDatabase(dbc, rng);

  PlanGenConfig pgc;
  pgc.fragment = QueryClass::kPositive;
  pgc.max_depth = 3;
  pgc.domain_size = 3;
  for (int i = 0; i < 4; ++i) {
    const GeneratedPlan gp = RandomPlan(rng, db, pgc);
    ExpectBitIdentical(gp.plan, db, WorldSemantics::kClosedWorld);
  }
}

TEST_P(CTableCertainSweep, RandomPlansBitIdentityUnderOwa) {
  Rng rng(GetParam() + 4000);
  RandomDbConfig dbc;
  dbc.arities = {2};
  dbc.rows_per_relation = 3;
  dbc.domain_size = 3;
  dbc.null_density = 0.3;
  dbc.max_nulls = 2;
  const Database db = MakeRandomDatabase(dbc, rng);

  PlanGenConfig pgc;
  pgc.fragment = QueryClass::kPositive;
  pgc.max_depth = 2;
  pgc.domain_size = 3;
  for (int i = 0; i < 3; ++i) {
    const GeneratedPlan gp = RandomPlan(rng, db, pgc);
    const WorldEnumOptions opts = SmallWorlds();
    auto en = CertainAnswersEnum(gp.plan, db, WorldSemantics::kOpenWorld,
                                 opts);
    auto ct = CertainAnswersCTable(gp.plan, db, WorldSemantics::kOpenWorld,
                                   opts);
    ASSERT_EQ(en.ok(), ct.ok()) << gp.plan->ToString();
    if (en.ok()) {
      EXPECT_EQ(*en, *ct) << gp.plan->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CTableCertainSweep,
                         ::testing::Range<uint64_t>(0, 16));

TEST(CTableCertain, OwaGuardMatchesEnumerationDriver) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1)});
  db.MutableRelation("S", 1);
  auto diff = RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S"));

  auto en = CertainAnswersEnum(diff, db, WorldSemantics::kOpenWorld);
  auto ct = CertainAnswersCTable(diff, db, WorldSemantics::kOpenWorld);
  ASSERT_FALSE(en.ok());
  ASSERT_FALSE(ct.ok());
  EXPECT_EQ(en.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(ct.status().code(), StatusCode::kUnsupported);
}

// --------------------------------------------------------------------------
// Fused join kernel ≡ unfused σ ∘ × on the represented world set.
// --------------------------------------------------------------------------

// All worlds of `t` over `domain` when wrapped into `db`'s global scope.
std::set<std::vector<Tuple>> WorldsOf(const CTable& t,
                                      const std::vector<Value>& domain) {
  CDatabase wrap;
  *wrap.MutableTable("__t", t.arity()) = t;
  std::set<std::vector<Tuple>> worlds;
  Status st = wrap.ForEachWorld(domain, [&](const Database& w) {
    worlds.insert(w.GetRelation("__t").tuples());
    return true;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return worlds;
}

TEST(CTableKernels, FusedJoinMatchesUnfusedProductSelect) {
  Rng rng(7);
  for (int iter = 0; iter < 12; ++iter) {
    RandomCDbConfig cfg;
    cfg.base.arities = {2, 2};
    cfg.base.rows_per_relation = 3;
    cfg.base.domain_size = 3;
    cfg.base.null_density = 0.35;
    cfg.base.max_nulls = 3;
    cfg.condition_density = 0.4;
    const CDatabase cdb = MakeRandomCDatabase(cfg, rng);
    const CTable& l = cdb.GetTable("R0");
    const CTable& rt = cdb.GetTable("R1");

    // R0.1 = R1.0 with a residual R0.0 = const.
    PredicatePtr pred = Predicate::And(
        Predicate::Eq(Term::Column(1), Term::Column(2)),
        Predicate::Eq(Term::Column(0), Term::Const(Value::Int(0))));
    const JoinSplit split = SplitForEquiJoin(pred, l.arity());
    ASSERT_FALSE(split.keys.empty());
    ASSERT_TRUE(ResidualSafeForCTableJoin(split.residual.get()));

    const std::vector<Value> domain = {Value::Int(0), Value::Int(1),
                                       Value::Int(2)};
    const std::set<Value> constants = cdb.Constants();
    const std::set<NullId> nulls = cdb.Nulls();
    CTableQuery q(*WorldEncoding::FromValues(
        std::vector<Value>(constants.begin(), constants.end()),
        std::vector<NullId>(nulls.begin(), nulls.end()), domain));
    const CodeCTable cl = q.Import(l);
    const CodeCTable cr = q.Import(rt);
    auto fused = q.Join(cl, cr, split.keys, split.residual, nullptr);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();

    auto unfused = q.Select(pred, q.Product(cl, cr, nullptr));
    ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();

    EXPECT_EQ(WorldsOf(q.Export(*fused), domain),
              WorldsOf(q.Export(*unfused), domain))
        << "iter " << iter;
  }
}

TEST(CTableKernels, ResidualSafetyRejectsOrderAndIsNull) {
  EXPECT_TRUE(ResidualSafeForCTableJoin(nullptr));
  EXPECT_TRUE(ResidualSafeForCTableJoin(
      Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))).get()));
  EXPECT_FALSE(ResidualSafeForCTableJoin(
      Predicate::Cmp(CmpOp::kLt, Term::Column(0), Term::Const(Value::Int(1)))
          .get()));
  EXPECT_FALSE(
      ResidualSafeForCTableJoin(Predicate::IsNull(Term::Column(0)).get()));
}

// --------------------------------------------------------------------------
// Scalability: the acceptance bar — at ≥ 12 nulls enumeration cannot finish
// under its world budget, the c-table backend answers exactly.
// --------------------------------------------------------------------------

TEST(CTableCertain, AnswersBeyondTheEnumerationBudget) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(2)});
  for (NullId id = 0; id < 12; id += 2) {
    db.AddTuple("R", Tuple{Value::Null(id), Value::Null(id + 1)});
  }
  ASSERT_EQ(db.Nulls().size(), 12u);

  auto q = RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Column(1)),
                          RAExpr::Scan("R"));
  WorldEnumOptions opts;
  opts.max_worlds = 1'000'000;  // 14^12 worlds needed — hopeless

  auto en = CertainAnswersEnum(q, db, WorldSemantics::kClosedWorld, opts);
  ASSERT_FALSE(en.ok());
  EXPECT_EQ(en.status().code(), StatusCode::kResourceExhausted);

  auto ct = CertainAnswersCTable(q, db, WorldSemantics::kClosedWorld, opts);
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();
  Relation expect(2);
  expect.Add(Tuple{Value::Int(1), Value::Int(1)});
  EXPECT_EQ(*ct, expect);

  // Possible answers scale the same way.
  auto en_p = PossibleAnswersEnum(q, db, opts);
  ASSERT_FALSE(en_p.ok());
  EXPECT_EQ(en_p.status().code(), StatusCode::kResourceExhausted);
  auto ct_p = PossibleAnswersCTable(q, db, opts);
  ASSERT_TRUE(ct_p.ok()) << ct_p.status().ToString();
  // Every equal-pair grounding of each null row is possible, plus the two
  // ground rows' σ survivors.
  EXPECT_TRUE(ct_p->Contains(Tuple{Value::Int(1), Value::Int(1)}));
  EXPECT_GT(ct_p->size(), 1u);
}

TEST(CTableCertain, StatsReportNormalizerWork) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Null(0), Value::Null(1)});
  // col0 = 1 ∧ col0 = 2: on the null row the condition ⊥₀=1 ∧ ⊥₀=2 is
  // contradictory through the union-find — the row is pruned, not carried.
  auto q = RAExpr::Select(
      Predicate::And(Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))),
                     Predicate::Eq(Term::Column(0), Term::Const(Value::Int(2)))),
      RAExpr::Scan("R"));

  EvalStats stats;
  EvalOptions eo;
  eo.stats = &stats;
  auto ct = CertainAnswersCTable(q, db, WorldSemantics::kClosedWorld,
                                 SmallWorlds(), eo);
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();
  EXPECT_GT(stats.at(EvalOp::kCTableExtract).calls, 0u);
  EXPECT_GT(stats.cond_simplified() + stats.unsat_pruned(), 0u);
}

// --------------------------------------------------------------------------
// Relation literals: their nulls are values, never valued by a world.
// --------------------------------------------------------------------------

// Certain, possible and exact-probability answers of both backends against
// eq. (1) and the union of the worlds.
void ExpectBackendsMatchReference(const RAExprPtr& plan, const Database& db) {
  WorldEnumOptions opts;
  opts.max_worlds = 200'000;
  const std::string where = plan->ToString() + "\non\n" + db.ToString();
  auto certain = ReferenceCertainAnswers(plan, db, opts);
  auto possible = ReferencePossibleAnswers(plan, db, opts);
  ASSERT_TRUE(certain.ok()) << certain.status().ToString();
  ASSERT_TRUE(possible.ok()) << possible.status().ToString();
  EvalOptions eo;
  eo.num_threads = 1;
  for (Backend backend : {Backend::kEnumeration, Backend::kCTable}) {
    const bool ct = backend == Backend::kCTable;
    auto c = ct ? CertainAnswersCTable(plan, db, WorldSemantics::kClosedWorld,
                                       opts, eo)
                : CertainAnswersEnum(plan, db, WorldSemantics::kClosedWorld,
                                     opts, eo);
    ASSERT_TRUE(c.ok()) << c.status().ToString() << "\n" << where;
    EXPECT_EQ(*c, *certain) << BackendName(backend) << " certain: " << where;
    auto p = ct ? PossibleAnswersCTable(plan, db, opts, eo)
                : PossibleAnswersEnum(plan, db, opts, eo);
    ASSERT_TRUE(p.ok()) << p.status().ToString() << "\n" << where;
    EXPECT_EQ(*p, *possible) << BackendName(backend) << " possible: " << where;

    ProbabilisticOptions popts;
    popts.threshold = 1.0;
    std::vector<TupleProbability> table;
    auto pr =
        ct ? CertainAnswersWithProbabilityCTable(
                 plan, db, WorldSemantics::kClosedWorld, popts, opts, eo,
                 &table)
           : CertainAnswersWithProbabilityEnum(
                 plan, db, WorldSemantics::kClosedWorld, popts, opts, eo,
                 &table);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString() << "\n" << where;
    EXPECT_EQ(*pr, *certain) << BackendName(backend) << " p = 1: " << where;
    Relation positive(possible->arity());
    for (const TupleProbability& t : table) {
      EXPECT_TRUE(t.exact) << where;
      if (t.probability > 0) positive.Add(t.tuple);
    }
    EXPECT_EQ(positive, *possible) << BackendName(backend) << " p > 0: "
                                   << where;
  }
}

Database LiteralDb() {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("R", Tuple{Value::Null(0), Value::Int(3)});
  return db;
}

RAExprPtr Literal(std::vector<Tuple> rows) {
  Relation r(rows.front().arity());
  for (Tuple& t : rows) r.Add(std::move(t));
  return RAExpr::ConstRel(std::move(r));
}

TEST(CTableLiteralNulls, PlansThatDisagreedWithEnumeration) {
  const Database db = LiteralDb();
  const RAExprPtr r = RAExpr::Scan("R");
  const RAExprPtr fresh = Literal({Tuple{Value::Null(9), Value::Int(99)}});
  const RAExprPtr shared = Literal({Tuple{Value::Null(0), Value::Int(3)}});
  const RAExprPtr shared5 = Literal({Tuple{Value::Null(0), Value::Int(5)}});
  for (const RAExprPtr& plan :
       {RAExpr::Union(r, fresh), RAExpr::Intersect(r, shared),
        RAExpr::Union(r, shared5), RAExpr::Diff(r, shared),
        RAExpr::Project(
            {1}, RAExpr::Select(
                     Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))),
                     RAExpr::Union(r, fresh)))}) {
    ExpectBackendsMatchReference(plan, db);
  }
  // The literal keeps its null in the answer: (_9, 99) is certain.
  QueryEngine engine(db);
  auto resp = engine.Run(
      QueryRequestBuilder(QueryInput::RaText("R U {(_9, 99)}"))
          .Notion(AnswerNotion::kCertainWithProbability)
          .OnBackend(Backend::kCTable)
          .Build());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->relation.Contains(Tuple{Value::Null(9), Value::Int(99)}));
  EXPECT_FALSE(resp->relation.Contains(Tuple{Value::Int(1), Value::Int(99)}));
}

class CTableLiteralSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CTableLiteralSweep, LiteralsWithFreshOrSharedNulls) {
  Rng rng(GetParam() + 7000);
  RandomDbConfig dbc;
  dbc.arities = {2};
  dbc.rows_per_relation = 3;
  dbc.domain_size = 3;
  dbc.null_density = 0.35;
  dbc.null_reuse = 0.4;
  dbc.max_nulls = 2;
  const Database db = MakeRandomDatabase(dbc, rng);
  const std::set<NullId> nulls = db.Nulls();
  const RAExprPtr r = RAExpr::Scan("R0");
  for (int i = 0; i < 4; ++i) {
    // A fresh null or one of the instance's, beside a constant.
    Value null = Value::Null(50 + static_cast<NullId>(i));
    if (!nulls.empty() && rng.Bernoulli(0.5)) {
      auto it = nulls.begin();
      std::advance(it, rng.Uniform(nulls.size()));
      null = Value::Null(*it);
    }
    const Value c = Value::Int(rng.UniformInt(0, 2));
    const RAExprPtr lit = Literal({rng.Bernoulli(0.5) ? Tuple{null, c}
                                                      : Tuple{c, null}});
    for (const RAExprPtr& plan :
         {RAExpr::Union(r, lit), RAExpr::Diff(r, lit), RAExpr::Diff(lit, r),
          RAExpr::Intersect(r, lit),
          RAExpr::Select(Predicate::Eq(Term::Column(0), Term::Column(2)),
                         RAExpr::Product(r, lit))}) {
      ExpectBackendsMatchReference(plan, db);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CTableLiteralSweep,
                         ::testing::Range<uint64_t>(0, 12));

// A selection constant that D lacks is in the world domain: the null can
// take it. Over R = {(_0)} and S = {(3)} the domain is {3, 7, 8}, and the
// world _0 ↦ 7 removes (3) from S − π(σ_{#0 = 7}(R × S)).
TEST(CTableQueryConstants, JoinTheWorldDomain) {
  Database db;
  db.AddTuple("R", Tuple{Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Int(3)});
  const Result<RAExprPtr> diff = ParseRA("S - proj{1}(sel[#0 = 7](R x S))");
  const Result<RAExprPtr> sel = ParseRA("sel[#0 = 7](R)");
  ASSERT_TRUE(diff.ok() && sel.ok());
  ExpectBackendsMatchReference(*diff, db);
  ExpectBackendsMatchReference(*sel, db);
  const WorldEnumOptions opts = SmallWorlds();
  const Relation none(1);
  const Relation three(1, {Tuple{Value::Int(3)}});
  const Relation seven(1, {Tuple{Value::Int(7)}});
  EXPECT_EQ(*ReferenceCertainAnswers(*diff, db, opts), none);
  EXPECT_EQ(*ReferencePossibleAnswers(*sel, db, opts), seven);
  QueryEngine engine(db);
  for (Backend backend : {Backend::kEnumeration, Backend::kCTable}) {
    const bool ct = backend == Backend::kCTable;
    const std::string name = BackendName(backend);
    auto c = ct ? CertainAnswersCTable(*diff, db, WorldSemantics::kClosedWorld,
                                       opts)
                : CertainAnswersEnum(*diff, db, WorldSemantics::kClosedWorld,
                                     opts);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_EQ(*c, none) << name;
    auto p = ct ? PossibleAnswersCTable(*sel, db, opts)
                : PossibleAnswersEnum(*sel, db, opts);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ(*p, seven) << name;
    std::vector<TupleProbability> table;
    auto pr = ct ? CertainAnswersWithProbabilityCTable(
                       *diff, db, WorldSemantics::kClosedWorld, {}, opts, {},
                       &table)
                 : CertainAnswersWithProbabilityEnum(
                       *diff, db, WorldSemantics::kClosedWorld, {}, opts, {},
                       &table);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();
    ASSERT_EQ(table.size(), 1u) << name;
    EXPECT_EQ(table[0].tuple, Tuple{Value::Int(3)}) << name;
    EXPECT_TRUE(table[0].exact) << name;
    EXPECT_EQ(table[0].probability, 2.0 / 3.0) << name;
    auto resp = engine.Run(
        QueryRequestBuilder(
            QueryInput::RaText("S - proj{1}(sel[#0 = 7](R x S))"))
            .Notion(AnswerNotion::kCertainEnum)
            .OnBackend(backend)
            .Build());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->relation, none) << name;
  }
}

// IS NULL is world-invariant: no cell of a world is null but a literal's
// null, which is a value in every world.
TEST(CTableIsNull, OnlyALiteralsNullIsNull) {
  const Database db = LiteralDb();
  const RAExprPtr r = RAExpr::Scan("R");
  const PredicatePtr is_null = Predicate::IsNull(Term::Column(0));
  const RAExprPtr base = RAExpr::Select(is_null, r);
  const RAExprPtr not_null = RAExpr::Select(Predicate::Not(is_null), r);
  const RAExprPtr literal = RAExpr::Select(
      is_null,
      RAExpr::Union(r, Literal({Tuple{Value::Null(9), Value::Int(99)}})));
  for (const RAExprPtr& plan : {base, not_null, literal}) {
    ExpectBackendsMatchReference(plan, db);
  }
  const WorldEnumOptions opts = SmallWorlds();
  auto certain = [&](const RAExprPtr& plan) {
    return CertainAnswersCTable(plan, db, WorldSemantics::kClosedWorld, opts);
  };
  auto possible = [&](const RAExprPtr& plan) {
    return PossibleAnswersCTable(plan, db, opts);
  };
  const Relation none(2);
  const Relation nine(2, {Tuple{Value::Null(9), Value::Int(99)}});
  EXPECT_EQ(*certain(base), none);
  EXPECT_EQ(*possible(base), none);
  EXPECT_EQ(*certain(not_null),
            Relation(2, {Tuple{Value::Int(1), Value::Int(2)}}));
  EXPECT_EQ(*certain(literal), nine);
  EXPECT_EQ(*possible(literal), nine);
}

// --------------------------------------------------------------------------
// Work counters on an instance shaped like the e2e certain_ctable workload:
// 150 orders over products 1..40, 120 payments with amounts 1..50, 6 of
// them on 2 shared null order ids. Products 39 and 40 belong only to orders
// no ground payment pays, so the join's probabilities count worlds.
// --------------------------------------------------------------------------

Database OrdersAndPayments() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("Order", {"o_id", "product"}).ok());
  EXPECT_TRUE(schema.AddRelation("Pay", {"p_id", "order_id", "amount"}).ok());
  Database db(schema);
  for (int64_t o = 1; o <= 150; ++o) {
    db.AddTuple("Order", Tuple{Value::Int(o),
                               Value::Int(o <= 140 ? 1 + o % 38 : 39 + o % 2)});
  }
  for (int64_t p = 1; p <= 120; ++p) {
    const Value order = p % 20 == 10 ? Value::Null(p < 60 ? 0 : 1)
                                     : Value::Int(1 + (p * 37) % 140);
    db.AddTuple("Pay",
                Tuple{Value::Int(p), order, Value::Int(1 + (p * 13) % 50)});
  }
  return db;
}

struct PinnedWork {
  const char* plan;
  AnswerNotion notion;
  size_t answers;
  EvalOp op;          // ct-join or ct-diff
  OpCounters kernel;  // calls, rows in, rows out, probes
  OpCounters extract;
  uint64_t worlds_counted, exact_count_hits, samples_drawn;
};

TEST(CTableStatsTest, PinsWorkCounters) {
  const char* kJoin = "proj{1}(sel[#0 = #3](Order x Pay))";
  const char* kDiff = "proj{0}(Order) - proj{1}(Pay)";
  const OpCounters join{1, 270, 1014, 1014, 0};
  const OpCounters diff{1, 270, 36, 675, 0};
  const PinnedWork pins[] = {
      {kJoin, AnswerNotion::kCertainEnum, 38, EvalOp::kCTableJoin, join,
       {1, 1014, 38, 0, 0}, 0, 0, 0},
      {kJoin, AnswerNotion::kPossible, 40, EvalOp::kCTableJoin, join,
       {1, 1014, 40, 40, 0}, 0, 0, 0},
      {kJoin, AnswerNotion::kCertainWithProbability, 38, EvalOp::kCTableJoin,
       join, {1, 1014, 40, 40, 0}, 46208, 40, 0},
      {kDiff, AnswerNotion::kCertainEnum, 0, EvalOp::kCTableDiff, diff,
       {1, 36, 0, 35, 0}, 0, 0, 0},
      {kDiff, AnswerNotion::kPossible, 36, EvalOp::kCTableDiff, diff,
       {1, 36, 36, 36, 0}, 0, 0, 0},
      {kDiff, AnswerNotion::kCertainWithProbability, 36, EvalOp::kCTableDiff,
       diff, {1, 36, 36, 36, 0}, 10944, 36, 0},
  };
  const Database db = OrdersAndPayments();
  const QueryEngine engine(db);
  for (const PinnedWork& pin : pins) {
    ProbabilisticOptions popts;
    popts.threshold = 0.5;
    QueryRequest req = QueryRequestBuilder(QueryInput::RaText(pin.plan))
                           .Notion(pin.notion)
                           .OnBackend(Backend::kCTable)
                           .Probability(popts)
                           .Build();
    req.eval.num_threads = 1;
    req.world_options.max_worlds = 200'000;
    auto resp = engine.Run(req);
    const std::string what =
        std::string(pin.plan) + " " + AnswerNotionName(pin.notion);
    ASSERT_TRUE(resp.ok()) << what << ": " << resp.status().ToString();
    EXPECT_EQ(resp->relation.size(), pin.answers) << what;
    const EvalStats& s = resp->stats;
    for (const auto& [op, want] : {std::pair{pin.op, pin.kernel},
                                   std::pair{EvalOp::kCTableExtract,
                                             pin.extract}}) {
      const OpCounters& got = s.at(op);
      EXPECT_EQ(got.calls, want.calls) << what << " " << EvalOpName(op);
      EXPECT_EQ(got.tuples_in, want.tuples_in) << what << " " << EvalOpName(op);
      EXPECT_EQ(got.tuples_out, want.tuples_out)
          << what << " " << EvalOpName(op);
      EXPECT_EQ(got.probes, want.probes) << what << " " << EvalOpName(op);
    }
    EXPECT_EQ(s.worlds_counted(), pin.worlds_counted) << what;
    EXPECT_EQ(s.exact_count_hits(), pin.exact_count_hits) << what;
    EXPECT_EQ(s.samples_drawn(), pin.samples_drawn) << what;
  }
}

}  // namespace
}  // namespace incdb
