// SQL 3VL algebra evaluation: the behaviours the paper's Section 1
// critiques, reproduced at the algebra level, and the served path (the
// columnar engine's three-valued mode) checked against the fold — on random
// plans over random Codd and shared-null databases and on fixed edge cases.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algebra/eval.h"
#include "algebra/eval_3vl.h"
#include "algebra/optimize.h"
#include "service/snapshot.h"
#include "testing/fuzz_gen.h"
#include "util/random.h"
#include "workload/generators.h"

namespace incdb {
namespace {

// The served path, with and without the optimizer, at 1, 2 and 7 threads
// with the chunked loops forced onto small inputs, must equal the fold or
// fail with the same status code.
void ExpectServedMatchesFold(const RAExprPtr& plan, const Database& db) {
  const std::string label = plan->ToString();
  const Result<Relation> want = Eval3VLReference(plan, db);
  for (bool optimize : {false, true}) {
    const RAExprPtr run = optimize ? Optimize(plan, db) : plan;
    for (int threads : {1, 2, 7}) {
      EvalOptions served;
      served.num_threads = threads;
      served.parallel_row_threshold = 2;
      const std::string combo =
          label + (optimize ? " +opt" : "") + " @" + std::to_string(threads);
      const Result<Relation> got = Eval3VL(run, db, served);
      if (!want.ok()) {
        ASSERT_FALSE(got.ok()) << combo;
        EXPECT_EQ(got.status().code(), want.status().code()) << combo;
        continue;
      }
      ASSERT_TRUE(got.ok()) << combo << ": " << got.status().ToString();
      EXPECT_EQ(*got, *want) << combo << "\n" << db.ToString();
    }
  }
}

// Evaluates on the served path (after checking it against the fold).
Relation Served(const RAExprPtr& plan, const Database& db) {
  ExpectServedMatchesFold(plan, db);
  Result<Relation> r = Eval3VL(plan, db);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *std::move(r) : Relation(0);
}

Relation Rel(size_t arity, const std::vector<Tuple>& rows) {
  Relation r(arity);
  for (const Tuple& t : rows) r.Add(t);
  return r;
}

// R(a, b) and S(c, d) with the given rows (either may be empty).
Database TwoRelations(const std::vector<Tuple>& r,
                      const std::vector<Tuple>& s) {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"c", "d"}).ok());
  Database db(schema);
  for (const Tuple& t : r) db.AddTuple("R", t);
  for (const Tuple& t : s) db.AddTuple("S", t);
  return db;
}

Value I(int64_t v) { return Value::Int(v); }
Value N(uint64_t id) { return Value::Null(id); }
PredicatePtr Cmp(CmpOp op, Term a, Term b) {
  return Predicate::Cmp(op, std::move(a), std::move(b));
}
Term C(size_t i) { return Term::Column(i); }
Term K(Value v) { return Term::Const(std::move(v)); }

TEST(TupleEquals3VLTest, ComponentwiseKleene) {
  const Tuple a{Value::Int(1), Value::Null(0)};
  const Tuple b{Value::Int(1), Value::Int(5)};
  const Tuple c{Value::Int(2), Value::Null(1)};
  EXPECT_EQ(TupleEquals3VL(a, b), TruthValue::kUnknown);
  EXPECT_EQ(TupleEquals3VL(a, c), TruthValue::kFalse);  // 1 ≠ 2 decides
  EXPECT_EQ(TupleEquals3VL(b, b), TruthValue::kTrue);
}

TEST(Eval3VLTest, RMinusSWithNullInS) {
  // Paper Section 1: R − S is empty whenever S contains a null, no matter
  // what R contains.
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Int(2)});
  db.AddTuple("S", Tuple{Value::Null(0)});
  auto q = RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S"));
  auto sql = Eval3VL(q, db);
  ASSERT_TRUE(sql.ok());
  EXPECT_TRUE(sql->empty()) << "SQL 3VL must return the empty set";

  // Naïve evaluation keeps both (the null matches neither syntactically) —
  // and indeed certainly |R| > |S| means R − S is nonempty, though *which*
  // tuple survives is not certain.
  auto naive = EvalNaive(q, db);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->size(), 2u);
}

TEST(Eval3VLTest, SelectionDropsUnknown) {
  Database db;
  db.AddTuple("R", Tuple{Value::Null(0)});
  db.AddTuple("R", Tuple{Value::Int(5)});
  auto q = RAExpr::Select(
      Predicate::Eq(Term::Column(0), Term::Const(Value::Int(5))),
      RAExpr::Scan("R"));
  auto r = Eval3VL(q, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Int(5)}));
}

TEST(Eval3VLTest, TautologySelectionLosesNullRows) {
  // σ_{A=1 ∨ A≠1}(R): 3VL drops the null row; certain answers keep it (as
  // an object) since the condition holds under every valuation.
  Database db;
  db.AddTuple("R", Tuple{Value::Null(0)});
  db.AddTuple("R", Tuple{Value::Int(1)});
  auto taut = Predicate::Or(
      Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))),
      Predicate::Ne(Term::Column(0), Term::Const(Value::Int(1))));
  auto q = RAExpr::Select(taut, RAExpr::Scan("R"));
  auto sql = Eval3VL(q, db);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(sql->size(), 1u);
  auto naive = EvalNaive(q, db);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->size(), 2u);
}

TEST(Eval3VLTest, IntersectRequiresCertainMatch) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Int(1)});
  db.AddTuple("S", Tuple{Value::Null(1)});
  auto q = RAExpr::Intersect(RAExpr::Scan("R"), RAExpr::Scan("S"));
  auto r = Eval3VL(q, db);
  ASSERT_TRUE(r.ok());
  // Only the certain match 1=1 survives; null rows compare UNKNOWN.
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(Tuple{Value::Int(1)}));
}

TEST(Eval3VLTest, PositiveOperatorsMatchNaiveOnCompleteData) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(2)});
  db.AddTuple("R", Tuple{Value::Int(2), Value::Int(2)});
  db.AddTuple("S", Tuple{Value::Int(2)});
  auto q = RAExpr::Diff(
      RAExpr::Project({0}, RAExpr::Scan("R")), RAExpr::Scan("S"));
  auto a = Eval3VL(q, db);
  auto b = EvalNaive(q, db);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // no nulls ⇒ the logics coincide
}

TEST(Eval3VLTest, DivisionRequiresCertainCoverage) {
  Database db;
  db.AddTuple("R", Tuple{Value::Int(1), Value::Int(1)});
  db.AddTuple("R", Tuple{Value::Int(1), Value::Null(0)});
  db.AddTuple("S", Tuple{Value::Int(1)});
  db.AddTuple("S", Tuple{Value::Int(2)});
  auto q = RAExpr::Divide(RAExpr::Scan("R"), RAExpr::Scan("S"));
  auto r = Eval3VL(q, db);
  ASSERT_TRUE(r.ok());
  // (1,2) is not *certainly* in R — the null only might be 2 — so 3VL
  // division rejects head 1.
  EXPECT_TRUE(r->empty());
}

class Served3VLSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Served3VLSweep, MatchesTheFoldOnRandomPlans) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 104729 + 3);
  for (bool codd : {true, false}) {
    for (QueryClass fragment :
         {QueryClass::kPositive, QueryClass::kRAcwa, QueryClass::kFullRA}) {
      RandomDbConfig db_cfg;
      db_cfg.arities = {1, 2, 3};
      db_cfg.rows_per_relation = 10;
      db_cfg.domain_size = 4;
      db_cfg.null_density = 0.25;
      db_cfg.null_reuse = 0.5;
      db_cfg.codd = codd;
      db_cfg.string_density = seed % 2 == 0 ? 0.0 : 0.3;
      const Database db = MakeRandomDatabase(db_cfg, rng);
      const auto snapshot = DatabaseSnapshot::Make(db, 1, nullptr);

      PlanGenConfig plan_cfg;
      plan_cfg.fragment = fragment;
      plan_cfg.max_depth = 4;
      plan_cfg.domain_size = 4;
      for (int round = 0; round < 8; ++round) {
        const RAExprPtr plan = RandomPlan(rng, db, plan_cfg).plan;
        ExpectServedMatchesFold(plan, db);
        ExpectServedMatchesFold(plan, snapshot->db());
      }
    }
  }
}

// Shapes where a shared null meets itself — self-joins, self-intersections,
// differences and divisions between overlapping relations — which random
// plans reach only now and then.
TEST_P(Served3VLSweep, MatchesTheFoldWhereSharedNullsMeet) {
  Rng rng(GetParam() * 7919 + 11);
  RandomDbConfig db_cfg;
  db_cfg.arities = {1, 2, 3};
  db_cfg.rows_per_relation = 12;
  db_cfg.domain_size = 3;
  db_cfg.null_density = 0.3;
  db_cfg.null_reuse = 0.6;
  const Database db = MakeRandomDatabase(db_cfg, rng);
  const RAExprPtr r0 = RAExpr::Scan("R0");
  const RAExprPtr r1 = RAExpr::Scan("R1");
  const RAExprPtr r2 = RAExpr::Scan("R2");
  const RAExprPtr plans[] = {
      RAExpr::Intersect(r1, r1),
      RAExpr::Intersect(RAExpr::Project({0, 1}, r2), r1),
      RAExpr::Diff(r1, RAExpr::Project({1, 2}, r2)),
      RAExpr::Diff(RAExpr::Project({2, 0}, r2), r1),
      RAExpr::Diff(RAExpr::Project({0}, r2), r0),
      RAExpr::Select(Cmp(CmpOp::kEq, C(0), C(2)), RAExpr::Product(r1, r1)),
      RAExpr::Project(
          {1, 3}, RAExpr::Select(Predicate::And(Cmp(CmpOp::kEq, C(1), C(2)),
                                                Cmp(CmpOp::kNe, C(0), C(3))),
                                 RAExpr::Product(r1, r1))),
      RAExpr::Select(Predicate::And(Cmp(CmpOp::kEq, C(0), C(3)),
                                    Cmp(CmpOp::kEq, C(1), C(4))),
                     RAExpr::Product(r1, r2)),
      RAExpr::Divide(r2, r0),
      RAExpr::Divide(r2, RAExpr::Project({1}, r1)),
      RAExpr::Divide(r1, RAExpr::Project({0}, r1)),
      RAExpr::Select(Predicate::Or(Predicate::Not(Cmp(CmpOp::kEq, C(0), C(1))),
                                   Predicate::IsNull(C(1))),
                     r1),
  };
  const auto snapshot = DatabaseSnapshot::Make(db, 1, nullptr);
  for (const RAExprPtr& plan : plans) {
    ExpectServedMatchesFold(plan, db);
    ExpectServedMatchesFold(plan, snapshot->db());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Served3VLSweep,
                         ::testing::Range<uint64_t>(0, 12));

TEST(Served3VLTest, NullConstantsInPredicatesAreUnknown) {
  const Database db = TwoRelations({{I(1), N(1)}, {I(2), I(3)}}, {});
  const RAExprPtr r = RAExpr::Scan("R");
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe}) {
    // Column against a null constant, either way round, and constant
    // against constant: UNKNOWN everywhere, so nothing is kept, and NOT
    // keeps nothing either.
    EXPECT_TRUE(Served(RAExpr::Select(Cmp(op, C(0), K(N(9))), r), db).empty());
    EXPECT_TRUE(Served(RAExpr::Select(Cmp(op, K(N(9)), C(0)), r), db).empty());
    EXPECT_TRUE(
        Served(RAExpr::Select(Predicate::Not(Cmp(op, K(I(1)), K(N(9)))), r),
               db)
            .empty());
  }
  // IS NULL stays two-valued, on a null constant too.
  EXPECT_EQ(Served(RAExpr::Select(Predicate::IsNull(K(N(9))), r), db).size(),
            2u);
  EXPECT_EQ(
      Served(RAExpr::Select(Predicate::Not(Predicate::IsNull(C(1))), r), db),
      Rel(2, {{I(2), I(3)}}));
}

TEST(Served3VLTest, SelfComparisonOfANullIsUnknown) {
  const Database db = TwoRelations({{N(1), I(1)}, {I(2), I(2)}}, {});
  EXPECT_EQ(Served(RAExpr::Select(Cmp(CmpOp::kEq, C(0), C(0)),
                                  RAExpr::Scan("R")),
                   db),
            Rel(2, {{I(2), I(2)}}));
  // Naïvely ⊥1 = ⊥1 holds.
  EXPECT_EQ(EvalNaive(RAExpr::Select(Cmp(CmpOp::kEq, C(0), C(0)),
                                     RAExpr::Scan("R")),
                      db)
                ->size(),
            2u);
}

TEST(Served3VLTest, NotAndOrFollowKleene) {
  const Database db =
      TwoRelations({{N(1), I(2)}, {N(2), I(3)}, {I(1), I(3)}, {I(2), N(3)}},
                   {});
  const RAExprPtr r = RAExpr::Scan("R");
  const PredicatePtr a_is_1 = Cmp(CmpOp::kEq, C(0), K(I(1)));
  const PredicatePtr b_is_2 = Cmp(CmpOp::kEq, C(1), K(I(2)));
  // NOT UNKNOWN is UNKNOWN: only (2, ⊥3) has a known a ≠ 1.
  EXPECT_EQ(Served(RAExpr::Select(Predicate::Not(a_is_1), r), db),
            Rel(2, {{I(2), N(3)}}));
  // UNKNOWN OR TRUE is TRUE; UNKNOWN OR FALSE is UNKNOWN.
  EXPECT_EQ(Served(RAExpr::Select(Predicate::Or(a_is_1, b_is_2), r), db),
            Rel(2, {{N(1), I(2)}, {I(1), I(3)}}));
  // UNKNOWN AND FALSE is FALSE, so its negation is TRUE.
  EXPECT_EQ(Served(RAExpr::Select(
                       Predicate::Not(Predicate::And(
                           a_is_1, Cmp(CmpOp::kEq, C(1), K(I(9))))),
                       r),
                   db)
                .size(),
            4u);
}

TEST(Served3VLTest, OneSharedNullAsBothJoinKeysDoesNotJoin) {
  const Database db = TwoRelations({{N(1), I(1)}, {I(5), I(2)}},
                                   {{N(1), I(7)}, {I(5), I(8)}});
  const RAExprPtr join = RAExpr::Select(
      Cmp(CmpOp::kEq, C(0), C(2)),
      RAExpr::Product(RAExpr::Scan("R"), RAExpr::Scan("S")));
  EXPECT_EQ(Served(join, db), Rel(4, {{I(5), I(2), I(5), I(8)}}));
  EXPECT_EQ(Served(RAExpr::Project({1, 3}, join), db),
            Rel(2, {{I(2), I(8)}}));
  // A residual over the join is Kleene too.
  EXPECT_TRUE(Served(RAExpr::Select(
                         Predicate::And(Cmp(CmpOp::kEq, C(0), C(2)),
                                        Cmp(CmpOp::kNe, C(1), K(N(4)))),
                         RAExpr::Product(RAExpr::Scan("R"),
                                         RAExpr::Scan("S"))),
                     db)
                  .empty());
  // Naïvely the shared null joins with itself.
  EXPECT_EQ(EvalNaive(join, db)->size(), 2u);
}

TEST(Served3VLTest, DifferenceByEmptyAndAllNullDivisors) {
  const std::vector<Tuple> r = {{I(1), I(2)}, {N(1), I(3)}, {N(2), N(3)}};
  const RAExprPtr diff = RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S"));
  // S empty: every row of R survives, nulls included.
  EXPECT_EQ(Served(diff, TwoRelations(r, {})), Rel(2, r));
  // S holding an all-null row: every row of R compares UNKNOWN to it.
  EXPECT_TRUE(Served(diff, TwoRelations(r, {{N(7), N(8)}})).empty());
  EXPECT_TRUE(Served(diff, TwoRelations(r, {{N(7), N(8)}, {I(9), I(9)}}))
                  .empty());
}

TEST(Served3VLTest, DifferenceWhenNullsCoverWhatSFills) {
  // S fills only position 0. A t whose null sits at position 0 agrees with
  // every row of S wherever both are non-null, so it goes; t = (4, 7)
  // differs from (1, ⊥) at position 0 and stays.
  const Database db = TwoRelations({{N(3), I(7)}, {I(4), I(7)}, {I(1), I(9)}},
                                   {{I(1), N(2)}});
  EXPECT_EQ(Served(RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S")), db),
            Rel(2, {{I(4), I(7)}}));
  // Several null patterns on both sides: only (2, 4) differs from every
  // row of S at a position both fill.
  const Database mixed = TwoRelations(
      {{I(1), I(1)}, {I(2), I(4)}, {I(2), N(1)}, {N(2), I(5)}, {I(3), I(3)}},
      {{I(1), N(4)}, {N(5), I(3)}, {I(9), I(9)}});
  EXPECT_EQ(
      Served(RAExpr::Diff(RAExpr::Scan("R"), RAExpr::Scan("S")), mixed),
      Rel(2, {{I(2), I(4)}}));
}

TEST(Served3VLTest, DifferenceOverRowsWiderThan64Columns) {
  // Null patterns of 70 positions span two 64-bit words.
  constexpr size_t kWide = 70;
  std::vector<std::string> names;
  for (size_t c = 0; c < kWide; ++c) names.push_back("c" + std::to_string(c));
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("A", names).ok());
  ASSERT_TRUE(schema.AddRelation("B", names).ok());
  Database db(schema);
  auto row = [&](int64_t fill, std::vector<std::pair<size_t, Value>> set) {
    std::vector<Value> v(kWide, I(fill));
    for (auto& [c, x] : set) v[c] = std::move(x);
    return Tuple(std::move(v));
  };
  const Tuple t1 = row(1, {{66, N(1)}});
  const Tuple t2 = row(1, {{66, I(2)}});
  const Tuple t3 = row(2, {});
  for (const Tuple& t : {t1, t2, t3}) db.AddTuple("A", t);
  // (1, …, ⊥ at 65, 3 at 66) agrees with t1 wherever both are non-null
  // and differs from t2 at 66; (2, ⊥ at 1, 2, …) agrees with t3.
  db.AddTuple("B", row(1, {{65, N(2)}, {66, I(3)}}));
  db.AddTuple("B", row(2, {{1, N(3)}}));
  EXPECT_EQ(Served(RAExpr::Diff(RAExpr::Scan("A"), RAExpr::Scan("B")), db),
            Rel(kWide, {t2}));
}

TEST(Served3VLTest, IntersectionNeedsAnExactNullFreeMatch) {
  const Database db = TwoRelations({{I(1), I(2)}, {N(1), I(2)}, {I(3), N(2)}},
                                   {{I(1), I(2)}, {N(1), I(2)}, {I(3), N(2)}});
  EXPECT_EQ(
      Served(RAExpr::Intersect(RAExpr::Scan("R"), RAExpr::Scan("S")), db),
      Rel(2, {{I(1), I(2)}}));
}

TEST(Served3VLTest, DivisionByEmptyNullAndNullFreeDivisors) {
  const std::vector<Tuple> r = {{I(1), I(1)}, {I(1), I(2)}, {N(1), I(1)},
                                {N(1), I(2)}, {I(2), I(1)}, {I(2), N(2)}};
  auto divide = [](const Database& db) {
    return Served(RAExpr::Divide(RAExpr::Scan("R"),
                                 RAExpr::Project({0}, RAExpr::Scan("S"))),
                  db);
  };
  // S empty: every head of R, the null head included.
  EXPECT_EQ(divide(TwoRelations(r, {})), Rel(1, {{I(1)}, {N(1)}, {I(2)}}));
  // S holding a null: no head has a TRUE match for it.
  EXPECT_TRUE(divide(TwoRelations(r, {{I(1), I(0)}, {N(3), I(0)}})).empty());
  // S null-free: null heads and rows with null tails never match.
  EXPECT_EQ(divide(TwoRelations(r, {{I(1), I(0)}, {I(2), I(0)}})),
            Rel(1, {{I(1)}}));
}

TEST(Served3VLTest, ZeroAryOperands) {
  const Database db = TwoRelations({{N(1), I(1)}}, {{I(2), N(2)}});
  const RAExprPtr r0 = RAExpr::Project({}, RAExpr::Scan("R"));
  const RAExprPtr s0 = RAExpr::Project({}, RAExpr::Scan("S"));
  const RAExprPtr empty0 = RAExpr::Project(
      {}, RAExpr::Select(Predicate::False(), RAExpr::Scan("S")));
  // () = () is TRUE: a non-empty S drops the one row, an empty one keeps it.
  EXPECT_TRUE(Served(RAExpr::Diff(r0, s0), db).empty());
  EXPECT_EQ(Served(RAExpr::Diff(r0, empty0), db).size(), 1u);
  EXPECT_EQ(Served(RAExpr::Intersect(r0, s0), db).size(), 1u);
  EXPECT_TRUE(Served(RAExpr::Intersect(r0, empty0), db).empty());
  EXPECT_EQ(Served(RAExpr::Union(empty0, r0), db).size(), 1u);
  EXPECT_EQ(Served(RAExpr::Product(r0, RAExpr::Scan("S")), db).size(), 1u);
  EXPECT_TRUE(
      Served(RAExpr::Select(Cmp(CmpOp::kEq, K(I(1)), K(N(1))), r0), db)
          .empty());
}

TEST(Served3VLTest, DeltaAndLiteralsWithNulls) {
  const Database db = TwoRelations({{N(1), I(1)}, {I(2), I(2)}},
                                   {{I(1), N(2)}, {I(2), I(2)}});
  const RAExprPtr delta = RAExpr::Delta();
  // Δ holds (⊥, ⊥) pairs, which σ[#0 = #1] drops under 3VL.
  EXPECT_EQ(Served(delta, db).size(), 4u);
  EXPECT_EQ(Served(RAExpr::Select(Cmp(CmpOp::kEq, C(0), C(1)), delta), db),
            Rel(2, {{I(1), I(1)}, {I(2), I(2)}}));
  ExpectServedMatchesFold(RAExpr::Diff(delta, RAExpr::Scan("S")), db);
  ExpectServedMatchesFold(RAExpr::Intersect(RAExpr::Scan("R"), delta), db);

  const RAExprPtr lit = RAExpr::ConstRel(
      Rel(2, {{I(2), N(5)}, {N(6), N(7)}, {I(2), I(2)}, {Value::Str("x"),
                                                         I(1)}}));
  const RAExprPtr r = RAExpr::Scan("R");
  ExpectServedMatchesFold(RAExpr::Diff(r, lit), db);
  ExpectServedMatchesFold(RAExpr::Diff(lit, r), db);
  ExpectServedMatchesFold(RAExpr::Intersect(lit, r), db);
  ExpectServedMatchesFold(RAExpr::Union(r, lit), db);
  ExpectServedMatchesFold(
      RAExpr::Select(Cmp(CmpOp::kEq, C(0), C(2)), RAExpr::Product(r, lit)),
      db);
  ExpectServedMatchesFold(
      RAExpr::Divide(RAExpr::Product(r, lit), RAExpr::Project({1}, lit)), db);
  EXPECT_TRUE(Served(RAExpr::Diff(r, lit), db).empty());
}

}  // namespace
}  // namespace incdb
