// Property tests for the condition arena (ctables/cond_arena.h), which
// builds every condition in normal form:
//
//  * idempotence — re-importing a node's own condition gives the node back;
//  * semantics preservation — the normal form has exactly the satisfying
//    valuations of the input, checked by exhaustive valuation enumeration
//    over a small domain;
//  * UNSAT-pruning soundness — a condition built as `false` is truly
//    unsatisfiable, and a satisfiable condition is never collapsed to
//    `false` (pruning never drops a satisfiable row);
//  * hash-consing — structurally identical inputs build the same node id;
//  * SatisfiableOverDomain agrees with brute-force enumeration over the
//    same finite domain, and its witness is the first satisfying valuation
//    in domain order — on small domains the conditions mention almost
//    entirely, and on wide ones (8–40 values, most never mentioned: ints,
//    strings and the fresh integers MakeWorldSpace appends) where the
//    value classes do the work.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/possible_worlds.h"
#include "ctables/cond_arena.h"
#include "util/random.h"

namespace incdb {
namespace {

// Random conditions over 4 nulls and a handful of constants, with enough
// nesting to exercise NNF, flattening, and the union-find pruning.
ConditionPtr RandomCondition(Rng* rng, int depth) {
  auto value = [&]() -> Value {
    switch (rng->Uniform(3)) {
      case 0:
        return Value::Null(static_cast<NullId>(rng->Uniform(4)));
      case 1:
        return Value::Int(static_cast<int64_t>(rng->Uniform(3)));
      default:
        return Value::Str(rng->Uniform(2) == 0 ? "a" : "b");
    }
  };
  const uint64_t pick = depth <= 0 ? rng->Uniform(3) : rng->Uniform(7);
  switch (pick) {
    case 0:
      return Condition::Eq(value(), value());
    case 1:
      return Condition::Neq(value(), value());
    case 2:
      return rng->Uniform(8) == 0 ? Condition::False() : Condition::True();
    case 3:
    case 4:
      return Condition::And(RandomCondition(rng, depth - 1),
                            RandomCondition(rng, depth - 1));
    case 5:
      return Condition::Or(RandomCondition(rng, depth - 1),
                           RandomCondition(rng, depth - 1));
    default:
      return Condition::Not(RandomCondition(rng, depth - 1));
  }
}

std::vector<Value> SmallDomain() {
  return {Value::Int(0), Value::Int(1), Value::Str("a")};
}

// Invokes `fn` on every total valuation of `nulls` over `domain`. Returns
// false if `fn` ever returns false (used for early exit).
bool ForEachAssignment(const std::set<NullId>& nulls,
                       const std::vector<Value>& domain,
                       const std::function<bool(const Valuation&)>& fn) {
  std::vector<NullId> ids(nulls.begin(), nulls.end());
  Valuation v;
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == ids.size()) return fn(v);
    for (const Value& d : domain) {
      v.Bind(ids[i], d);
      if (!rec(i + 1)) return false;
    }
    return true;
  };
  return rec(0);
}

// An arena with the encoding of the conditions it will import: every null
// of Null(0..3), the constants those conditions use, and `extra` values.
struct ArenaFixture {
  WorldEncoding enc;
  CondArena arena;

  explicit ArenaFixture(std::vector<Value> extra = {}) {
    std::vector<Value> values = {Value::Int(0), Value::Int(1), Value::Int(2),
                                 Value::Int(5), Value::Int(7), Value::Str("a"),
                                 Value::Str("b")};
    values.insert(values.end(), extra.begin(), extra.end());
    enc = *WorldEncoding::FromValues(std::move(values), {0, 1, 2, 3}, {});
  }

  uint32_t Import(const ConditionPtr& c) {
    return ImportCondition(c, enc, &arena);
  }
  ConditionPtr Export(uint32_t id) const {
    return ExportCondition(arena, id,
                           [&](uint32_t t) { return enc.Decode(t); });
  }
};

class ConditionNormProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConditionNormProperty, NormalizeIsIdempotentAndHashConsed) {
  Rng rng(GetParam());
  ArenaFixture f;
  for (int i = 0; i < 50; ++i) {
    const ConditionPtr c = RandomCondition(&rng, 4);
    const uint32_t n1 = f.Import(c);
    const uint32_t n2 = f.Import(f.Export(n1));
    EXPECT_EQ(n1, n2) << "not idempotent: " << c->ToString();
    // Importing the same input again builds the same node.
    EXPECT_EQ(f.Import(c), n1);
  }
}

TEST_P(ConditionNormProperty, NormalizePreservesSatisfyingValuations) {
  Rng rng(GetParam() + 1000);
  const std::vector<Value> domain = SmallDomain();
  ArenaFixture f;
  for (int i = 0; i < 40; ++i) {
    const ConditionPtr c = RandomCondition(&rng, 4);
    const ConditionPtr n = f.Export(f.Import(c));
    // Nulls of the normal form are a subset of the input's; enumerate over
    // the input's nulls so both sides are total.
    std::set<NullId> nulls;
    c->CollectNulls(&nulls);
    ForEachAssignment(nulls, domain, [&](const Valuation& v) {
      EXPECT_EQ(c->EvalUnder(v), n->EvalUnder(v))
          << c->ToString() << "  vs  " << n->ToString() << "  under "
          << v.ToString();
      return true;
    });
  }
}

TEST_P(ConditionNormProperty, UnsatPruningIsSound) {
  Rng rng(GetParam() + 2000);
  ArenaFixture f;
  for (int i = 0; i < 40; ++i) {
    const ConditionPtr c = RandomCondition(&rng, 4);
    const ConditionPtr n = f.Export(f.Import(c));
    if (n->IsFalse()) {
      // Pruned: must be truly unsatisfiable (over the infinite domain).
      EXPECT_FALSE(IsSatisfiable(c)) << "pruned satisfiable: " << c->ToString();
    }
    if (IsSatisfiable(c)) {
      // Pruning never drops a satisfiable row.
      EXPECT_FALSE(n->IsFalse()) << "dropped satisfiable: " << c->ToString();
    }
  }
}

TEST_P(ConditionNormProperty, SatisfiableOverDomainMatchesBruteForce) {
  Rng rng(GetParam() + 3000);
  const std::vector<Value> domain = SmallDomain();
  for (int i = 0; i < 40; ++i) {
    const ConditionPtr c = RandomCondition(&rng, 3);
    std::set<NullId> nulls;
    c->CollectNulls(&nulls);
    bool brute_sat = false;
    ForEachAssignment(nulls, domain, [&](const Valuation& v) {
      if (c->EvalUnder(v)) {
        brute_sat = true;
        return false;
      }
      return true;
    });
    Valuation witness;
    auto solved = SatisfiableOverDomain(c, domain, /*budget=*/1'000'000,
                                        &witness);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_EQ(*solved, brute_sat) << c->ToString();
    if (*solved) {
      // The witness (completed on the unconstrained nulls) satisfies.
      Valuation total = witness;
      for (NullId id : nulls) {
        if (!total.IsBound(id)) total.Bind(id, domain[0]);
      }
      EXPECT_TRUE(c->EvalUnder(total))
          << c->ToString() << " not satisfied by witness " << total.ToString();
    }
  }
}

// A world domain of about `size` values built the way MakeWorldSpace builds
// one: an instance's ints and strings, then one fresh integer per null.
std::vector<Value> WideDomain(Rng* rng, size_t size) {
  Database db;
  for (size_t i = 0; i + 3 < size; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    db.AddTuple("R", Tuple{rng->Bernoulli(0.25)
                               ? Value::Str(name)
                               : Value::Int(static_cast<int64_t>(3 * i))});
  }
  for (NullId id = 0; id < 3; ++id) db.AddTuple("R", Tuple{Value::Null(id)});
  return MakeWorldSpace(db, WorldEnumOptions{}).domain;
}

// Random conditions over 3 nulls and a few values picked from `domain` (and
// one outside it), with null-null equalities that couple the nulls.
ConditionPtr RandomWideCondition(Rng* rng, const std::vector<Value>& picks,
                                 int depth) {
  auto term = [&]() -> Value {
    if (rng->Bernoulli(0.55)) {
      return Value::Null(static_cast<NullId>(rng->Uniform(3)));
    }
    return picks[rng->Uniform(picks.size())];
  };
  const uint64_t pick = depth <= 0 ? rng->Uniform(2) : rng->Uniform(6);
  switch (pick) {
    case 0:
      return Condition::Eq(term(), term());
    case 1:
      return Condition::Neq(term(), term());
    case 2:
    case 3:
      return Condition::And(RandomWideCondition(rng, picks, depth - 1),
                            RandomWideCondition(rng, picks, depth - 1));
    case 4:
      return Condition::Or(RandomWideCondition(rng, picks, depth - 1),
                           RandomWideCondition(rng, picks, depth - 1));
    default:
      return Condition::Not(RandomWideCondition(rng, picks, depth - 1));
  }
}

// The first valuation of `nulls` in domain order (the lowest null most
// significant) that satisfies `c`, if any.
std::optional<Valuation> FirstSatisfying(const ConditionPtr& c,
                                         const std::set<NullId>& nulls,
                                         const std::vector<Value>& domain) {
  std::optional<Valuation> first;
  ForEachAssignment(nulls, domain, [&](const Valuation& v) {
    if (!c->EvalUnder(v)) return true;
    first = v;
    return false;
  });
  return first;
}

// Satisfiability and the witness against full enumeration: the search's
// bindings, with the nulls it left free at the first domain value, are the
// first satisfying valuation in domain order.
void ExpectSatMatchesBruteForce(const ConditionPtr& c,
                                const std::vector<Value>& domain) {
  std::set<NullId> nulls;
  c->CollectNulls(&nulls);
  const std::optional<Valuation> first = FirstSatisfying(c, nulls, domain);
  Valuation witness;
  auto solved = SatisfiableOverDomain(c, domain, 1'000'000, &witness);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  ASSERT_EQ(*solved, first.has_value()) << c->ToString();
  if (!first) return;
  for (NullId id : nulls) {
    const Value got = witness.IsBound(id) ? witness.Lookup(id) : domain[0];
    EXPECT_EQ(got, first->Lookup(id))
        << c->ToString() << ": witness " << witness.ToString()
        << ", first satisfying " << first->ToString();
  }
}

TEST_P(ConditionNormProperty, SatisfiableOverWideDomainsMatchesBruteForce) {
  Rng rng(GetParam() + 4000);
  const std::vector<Value> domain = WideDomain(&rng, 8 + rng.Uniform(33));
  ASSERT_GE(domain.size(), 8u);
  ASSERT_LE(domain.size(), 40u);
  // A handful of mentioned values, one of them outside the domain; most of
  // the domain is never mentioned.
  std::vector<Value> picks = {Value::Int(-5)};
  for (int k = 0; k < 3; ++k) picks.push_back(domain[rng.Uniform(domain.size())]);
  picks.push_back(domain.back());  // a fresh integer
  for (int i = 0; i < 30; ++i) {
    ExpectSatMatchesBruteForce(RandomWideCondition(&rng, picks, 3), domain);
  }
  // 3 nulls coupled by null-null equalities, away from two mentioned values.
  const Value x = Value::Null(0), y = Value::Null(1), z = Value::Null(2);
  ExpectSatMatchesBruteForce(
      Condition::And(
          Condition::And(Condition::Eq(x, y), Condition::Neq(y, z)),
          Condition::And(Condition::Neq(x, picks[1]),
                         Condition::Neq(z, picks[2]))),
      domain);
}

TEST(ConditionNorm, ComponentMentioningEveryDomainValue) {
  // x takes no domain value but the last one, and y = x: every value of the
  // domain is mentioned, so there is no representative class.
  Rng rng(11);
  const std::vector<Value> domain = WideDomain(&rng, 12);
  const Value x = Value::Null(0), y = Value::Null(1);
  ConditionPtr c = Condition::Eq(x, y);
  for (size_t i = 0; i + 1 < domain.size(); ++i) {
    c = Condition::And(c, Condition::Neq(x, domain[i]));
  }
  ExpectSatMatchesBruteForce(c, domain);
  ExpectSatMatchesBruteForce(Condition::And(c, Condition::Neq(y, domain.back())),
                             domain);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConditionNormProperty,
                         ::testing::Range<uint64_t>(0, 20));

TEST(ConditionNorm, UnionFindCatchesChainedContradiction) {
  // _0 = _1 ∧ _1 = _2 ∧ _0 = 5 ∧ _2 = 7 is UNSAT only through the chain.
  ArenaFixture f;
  ConditionPtr c = Condition::And(
      Condition::And(Condition::Eq(Value::Null(0), Value::Null(1)),
                     Condition::Eq(Value::Null(1), Value::Null(2))),
      Condition::And(Condition::Eq(Value::Null(0), Value::Int(5)),
                     Condition::Eq(Value::Null(2), Value::Int(7))));
  EXPECT_EQ(f.Import(c), CondArena::kFalse);
  EXPECT_GE(f.arena.unsat_pruned(), 1u);
}

TEST(ConditionNorm, NegatedLiteralOnMergedClassIsUnsat) {
  // _0 = _1 ∧ ¬(_1 = _0): contradiction through the canonical Eq ordering.
  ArenaFixture f;
  ConditionPtr c = Condition::And(
      Condition::Eq(Value::Null(0), Value::Null(1)),
      Condition::Not(Condition::Eq(Value::Null(1), Value::Null(0))));
  EXPECT_EQ(f.Import(c), CondArena::kFalse);
}

TEST(ConditionNorm, DropsImpliedEqualitiesAndCountsSimplification) {
  // (_0 = 1 ∧ _0 = 1) duplicated through different tree shapes.
  ArenaFixture f;
  ConditionPtr eq = Condition::Eq(Value::Null(0), Value::Int(1));
  ConditionPtr c = Condition::And(eq, Condition::And(eq, eq));
  ConditionPtr n = f.Export(f.Import(c));
  EXPECT_LT(n->Size(), c->Size());
  EXPECT_GE(f.arena.simplified(), 1u);
}

TEST(ConditionNorm, ComplementaryDisjunctionIsTautology) {
  ArenaFixture f;
  ConditionPtr eq = Condition::Eq(Value::Null(0), Value::Int(1));
  ConditionPtr c = Condition::Or(eq, Condition::Not(eq));
  EXPECT_EQ(f.Import(c), CondArena::kTrue);
}

TEST(ConditionNorm, SharedStructureNormalizesToSameNode) {
  // Two structurally identical but separately built conditions intern to
  // pointer-identical normal forms.
  ArenaFixture f;
  auto build = [] {
    return Condition::And(Condition::Eq(Value::Null(0), Value::Int(1)),
                          Condition::Neq(Value::Null(1), Value::Str("a")));
  };
  EXPECT_EQ(f.Import(build()), f.Import(build()));
}

TEST(ConditionNorm, SatisfiabilityBudgetSurfacesAsResourceExhausted) {
  // 4 unconstrained-but-chained nulls over a 3-value domain with a budget
  // of 1 branch step cannot finish.
  ConditionPtr c = Condition::And(
      Condition::And(Condition::Eq(Value::Null(0), Value::Null(1)),
                     Condition::Eq(Value::Null(2), Value::Null(3))),
      Condition::Neq(Value::Null(0), Value::Null(2)));
  auto r = SatisfiableOverDomain(c, SmallDomain(), /*budget=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ConditionNorm, EmptyDomainHandlesGroundAndNullConditions) {
  const std::vector<Value> empty;
  auto ground = SatisfiableOverDomain(
      Condition::Eq(Value::Int(1), Value::Int(1)), empty);
  ASSERT_TRUE(ground.ok());
  EXPECT_TRUE(*ground);
  auto with_null = SatisfiableOverDomain(
      Condition::Eq(Value::Null(0), Value::Int(1)), empty);
  ASSERT_TRUE(with_null.ok());
  EXPECT_FALSE(*with_null);  // no value to bind ⊥_0 to
}

}  // namespace
}  // namespace incdb
