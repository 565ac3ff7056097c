#include "ctables/condition.h"

#include <gtest/gtest.h>

namespace incdb {
namespace {

TEST(ConditionTest, FactoryFolding) {
  // Equal values fold to true; distinct constants to false.
  EXPECT_TRUE(Condition::Eq(Value::Int(5), Value::Int(5))->IsTrue());
  EXPECT_TRUE(Condition::Eq(Value::Null(1), Value::Null(1))->IsTrue());
  EXPECT_TRUE(Condition::Eq(Value::Int(5), Value::Int(6))->IsFalse());
  EXPECT_TRUE(Condition::Eq(Value::Int(5), Value::Str("5"))->IsFalse());
  // Null-vs-constant stays open.
  EXPECT_EQ(Condition::Eq(Value::Null(0), Value::Int(5))->kind(),
            Condition::Kind::kEq);

  auto open = Condition::Eq(Value::Null(0), Value::Int(5));
  EXPECT_TRUE(Condition::And(Condition::False(), open)->IsFalse());
  EXPECT_EQ(Condition::And(Condition::True(), open).get(), open.get());
  EXPECT_TRUE(Condition::Or(Condition::True(), open)->IsTrue());
  EXPECT_EQ(Condition::Or(Condition::False(), open).get(), open.get());
  EXPECT_TRUE(Condition::Not(Condition::True())->IsFalse());
  // Double negation collapses.
  EXPECT_EQ(Condition::Not(Condition::Not(open)).get(), open.get());
}

TEST(ConditionTest, EvalUnderValuation) {
  auto c = Condition::And(Condition::Eq(Value::Null(0), Value::Int(1)),
                          Condition::Neq(Value::Null(1), Value::Null(0)));
  Valuation v;
  v.Bind(0, Value::Int(1));
  v.Bind(1, Value::Int(2));
  EXPECT_TRUE(c->EvalUnder(v));
  v.Bind(1, Value::Int(1));
  EXPECT_FALSE(c->EvalUnder(v));
  v.Bind(0, Value::Int(9));
  EXPECT_FALSE(c->EvalUnder(v));
}

TEST(ConditionTest, CollectNullsAndConstants) {
  auto c = Condition::Or(Condition::Eq(Value::Null(3), Value::Int(7)),
                         Condition::Eq(Value::Null(5), Value::Str("a")));
  std::set<NullId> nulls;
  c->CollectNulls(&nulls);
  EXPECT_EQ(nulls, (std::set<NullId>{3, 5}));
  std::set<Value> consts;
  c->CollectConstants(&consts);
  EXPECT_EQ(consts, (std::set<Value>{Value::Int(7), Value::Str("a")}));
}

TEST(ConditionTest, SatisfiabilityBasics) {
  EXPECT_TRUE(IsSatisfiable(Condition::True()));
  EXPECT_FALSE(IsSatisfiable(Condition::False()));
  // ⊥0 = 1 ∧ ⊥0 = 2 is unsatisfiable.
  auto c = Condition::And(Condition::Eq(Value::Null(0), Value::Int(1)),
                          Condition::Eq(Value::Null(0), Value::Int(2)));
  EXPECT_FALSE(IsSatisfiable(c));
  // ⊥0 = 1 ∨ ⊥0 = 2 is satisfiable.
  auto d = Condition::Or(Condition::Eq(Value::Null(0), Value::Int(1)),
                         Condition::Eq(Value::Null(0), Value::Int(2)));
  EXPECT_TRUE(IsSatisfiable(d));
}

TEST(ConditionTest, SatisfiabilityNeedsFreshConstants) {
  // ⊥0 ≠ 1: satisfiable only with a constant outside the mentioned ones —
  // the fresh-value construction must find it.
  auto c = Condition::Neq(Value::Null(0), Value::Int(1));
  EXPECT_TRUE(IsSatisfiable(c));
  // ⊥0 ≠ ⊥1 likewise (two nulls, no constants).
  EXPECT_TRUE(IsSatisfiable(Condition::Neq(Value::Null(0), Value::Null(1))));
}

TEST(ConditionTest, SatisfiabilityEqualityChains) {
  // ⊥0 = ⊥1 ∧ ⊥1 = ⊥2 ∧ ⊥0 ≠ ⊥2: unsatisfiable by transitivity.
  auto c = Condition::And(
      Condition::And(Condition::Eq(Value::Null(0), Value::Null(1)),
                     Condition::Eq(Value::Null(1), Value::Null(2))),
      Condition::Neq(Value::Null(0), Value::Null(2)));
  EXPECT_FALSE(IsSatisfiable(c));
}

TEST(ConditionTest, ImplicationAndEquivalence) {
  // a ⊨ b iff a ∧ ¬b is unsatisfiable.
  auto implies = [](const ConditionPtr& a, const ConditionPtr& b) {
    return !IsSatisfiable(Condition::And(a, Condition::Not(b)));
  };
  auto eq01 = Condition::Eq(Value::Null(0), Value::Null(1));
  auto eq0c = Condition::Eq(Value::Null(0), Value::Int(1));
  auto eq1c = Condition::Eq(Value::Null(1), Value::Int(1));
  // (⊥0 = 1 ∧ ⊥1 = 1) ⊨ ⊥0 = ⊥1.
  EXPECT_TRUE(implies(Condition::And(eq0c, eq1c), eq01));
  EXPECT_FALSE(implies(eq01, eq0c));
  // De Morgan: ¬(a ∧ b) ≡ ¬a ∨ ¬b.
  auto a = Condition::Eq(Value::Null(0), Value::Int(1));
  auto b = Condition::Eq(Value::Null(1), Value::Int(2));
  auto lhs = Condition::Not(Condition::And(a, b));
  auto rhs = Condition::Or(Condition::Not(a), Condition::Not(b));
  EXPECT_TRUE(implies(lhs, rhs) && implies(rhs, lhs));
}

TEST(ConditionTest, SizeMetric) {
  auto open = Condition::Eq(Value::Null(0), Value::Int(5));
  EXPECT_EQ(open->Size(), 1u);
  EXPECT_EQ(Condition::And(open, Condition::Not(open))->Size(), 4u);
}

TEST(ConditionTest, CanonicalEqOrdering) {
  // Eq arguments are stored in canonical order for structural sharing.
  auto a = Condition::Eq(Value::Int(5), Value::Null(0));
  EXPECT_TRUE(a->lhs().is_null());
  EXPECT_EQ(a->rhs(), Value::Int(5));
}

}  // namespace
}  // namespace incdb
