#include "algebra/classify.h"

#include <gtest/gtest.h>

namespace incdb {
namespace {

RAExprPtr PosSelect(RAExprPtr child) {
  return RAExpr::Select(
      Predicate::Eq(Term::Column(0), Term::Const(Value::Int(1))),
      std::move(child));
}

TEST(ClassifyTest, PositiveFragment) {
  auto r = RAExpr::Scan("R");
  auto s = RAExpr::Scan("S");
  EXPECT_EQ(Classify(r), QueryClass::kPositive);
  EXPECT_EQ(Classify(PosSelect(r)), QueryClass::kPositive);
  EXPECT_EQ(Classify(RAExpr::Project({0}, r)), QueryClass::kPositive);
  EXPECT_EQ(Classify(RAExpr::Product(r, s)), QueryClass::kPositive);
  EXPECT_EQ(Classify(RAExpr::Union(r, s)), QueryClass::kPositive);
  EXPECT_EQ(Classify(RAExpr::Intersect(r, s)), QueryClass::kPositive);
  EXPECT_EQ(Classify(RAExpr::Delta()), QueryClass::kPositive);
}

TEST(ClassifyTest, NegationLeavesPositive) {
  auto r = RAExpr::Scan("R");
  auto neg_sel = RAExpr::Select(
      Predicate::Ne(Term::Column(0), Term::Const(Value::Int(1))), r);
  EXPECT_EQ(Classify(neg_sel), QueryClass::kFullRA);
  EXPECT_EQ(Classify(RAExpr::Diff(r, r)), QueryClass::kFullRA);
}

TEST(ClassifyTest, GuardedDivisionIsRAcwa) {
  auto r = RAExpr::Scan("R");  // arity irrelevant for classification
  auto s = RAExpr::Scan("S");
  // R ÷ S with S a base relation: RA_cwa.
  auto div = RAExpr::Divide(r, s);
  EXPECT_EQ(Classify(div), QueryClass::kRAcwa);
  EXPECT_TRUE(IsRAcwa(div));
  EXPECT_FALSE(IsPositive(div));
}

TEST(ClassifyTest, DivisorGrammarRAdeltaPiTimesUnion) {
  auto r = RAExpr::Scan("R");
  auto s = RAExpr::Scan("S");
  // Divisors may use Δ, π, ×, ∪ over base relations.
  EXPECT_TRUE(IsDeltaPiTimesUnion(RAExpr::Delta()));
  EXPECT_TRUE(IsDeltaPiTimesUnion(RAExpr::Project({0}, s)));
  EXPECT_TRUE(IsDeltaPiTimesUnion(RAExpr::Product(s, RAExpr::Delta())));
  EXPECT_TRUE(IsDeltaPiTimesUnion(RAExpr::Union(s, s)));
  // ... but not selections or differences.
  EXPECT_FALSE(IsDeltaPiTimesUnion(
      RAExpr::Select(Predicate::True(), s)));
  EXPECT_FALSE(IsDeltaPiTimesUnion(RAExpr::Diff(s, s)));

  EXPECT_EQ(Classify(RAExpr::Divide(r, RAExpr::Union(s, s))),
            QueryClass::kRAcwa);
  EXPECT_EQ(
      Classify(RAExpr::Divide(r, RAExpr::Select(Predicate::True(), s))),
      QueryClass::kFullRA);
}

TEST(ClassifyTest, NestedDivisionStaysRAcwa) {
  auto r3 = RAExpr::Scan("T");  // pretend arity 3
  auto s = RAExpr::Scan("S");
  auto inner = RAExpr::Divide(r3, s);           // RA_cwa
  auto outer = RAExpr::Divide(inner, s);        // still RA_cwa
  EXPECT_TRUE(IsRAcwa(outer));
  // But division *inside a divisor* is not allowed.
  auto bad = RAExpr::Divide(r3, RAExpr::Divide(r3, s));
  EXPECT_FALSE(IsRAcwa(bad));
}

TEST(ClassifyTest, NaiveEvaluationGuarantees) {
  auto r = RAExpr::Scan("R");
  auto s = RAExpr::Scan("S");
  auto positive = RAExpr::Project({0}, r);
  auto racwa = RAExpr::Divide(r, s);
  auto full = RAExpr::Diff(r, r);

  // OWA: UCQs only (optimal per [51]).
  EXPECT_TRUE(NaiveEvaluationWorks(positive, WorldSemantics::kOpenWorld));
  EXPECT_FALSE(NaiveEvaluationWorks(racwa, WorldSemantics::kOpenWorld));
  EXPECT_FALSE(NaiveEvaluationWorks(full, WorldSemantics::kOpenWorld));

  // CWA: Pos∀G = RA_cwa too.
  EXPECT_TRUE(NaiveEvaluationWorks(positive, WorldSemantics::kClosedWorld));
  EXPECT_TRUE(NaiveEvaluationWorks(racwa, WorldSemantics::kClosedWorld));
  EXPECT_FALSE(NaiveEvaluationWorks(full, WorldSemantics::kClosedWorld));
}

TEST(ClassifyTest, NoGuaranteeWithANullInARelationLiteral) {
  // R ∪ {(_9, 99)} is positive, but its literal's null is a value in every
  // world, which Q(D)_cmpl drops: naïve evaluation loses the certain row.
  auto literal = [](Value a) {
    Relation r(2);
    r.Add(Tuple{std::move(a), Value::Int(99)});
    return RAExpr::ConstRel(std::move(r));
  };
  auto with_null = RAExpr::Union(RAExpr::Scan("R"), literal(Value::Null(9)));
  auto ground = RAExpr::Union(RAExpr::Scan("R"), literal(Value::Int(9)));
  EXPECT_EQ(Classify(with_null), QueryClass::kPositive);
  EXPECT_TRUE(LiteralHoldsNull(with_null));
  EXPECT_TRUE(LiteralHoldsNull(RAExpr::Project({0}, with_null)));
  EXPECT_FALSE(LiteralHoldsNull(ground));
  for (WorldSemantics semantics :
       {WorldSemantics::kOpenWorld, WorldSemantics::kClosedWorld,
        WorldSemantics::kWeakClosedWorld}) {
    EXPECT_FALSE(NaiveEvaluationWorks(with_null, semantics));
    EXPECT_TRUE(NaiveEvaluationWorks(ground, semantics));
  }
}

TEST(ClassifyTest, NoGuaranteeWithANullSelectionConstant) {
  // π_1(σ_{#0 = _0}(R)) is positive, but valuations never apply to the
  // predicate's _0: naïve evaluation matches the null _0 of D, no world
  // holds it.
  auto select = [](Value c) {
    return RAExpr::Project(
        {1}, RAExpr::Select(Predicate::Eq(Term::Column(0),
                                          Term::Const(std::move(c))),
                            RAExpr::Scan("R")));
  };
  auto with_null = select(Value::Null(0));
  auto ground = select(Value::Int(0));
  EXPECT_EQ(Classify(with_null), QueryClass::kPositive);
  EXPECT_EQ(SelectionNull(with_null), Value::Null(0));
  EXPECT_EQ(SelectionNull(ground), std::nullopt);
  EXPECT_FALSE(LiteralHoldsNull(with_null));
  for (WorldSemantics semantics :
       {WorldSemantics::kOpenWorld, WorldSemantics::kClosedWorld,
        WorldSemantics::kWeakClosedWorld}) {
    EXPECT_FALSE(NaiveEvaluationWorks(with_null, semantics));
    EXPECT_TRUE(NaiveEvaluationWorks(ground, semantics));
  }
}

}  // namespace
}  // namespace incdb
