// Extraction from result c-tables (ctables/ctable_algebra.h):
//
//  * the membership condition D_t built through a RowIndex is the node a
//    fold over every row builds, on random c-tables with null-carrying rows
//    and a non-`true` global condition;
//  * possible-answer extraction stops checking a ground tuple once it is
//    known to be possible, rather than checking every row that carries it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ctables/ctable_algebra.h"
#include "util/random.h"

namespace incdb {
namespace {

// The generator of ctable_property_test: two unary tables of 1–3 rows over
// {0, 1, 2} and fresh or reused nulls, some rows guarded by one equality.
CDatabase RandomCDatabase(uint64_t seed) {
  Rng rng(seed);
  CDatabase db;
  NullId next = 0;
  auto random_value = [&]() -> Value {
    if (rng.Bernoulli(0.35)) {
      if (next > 0 && rng.Bernoulli(0.5)) {
        return Value::Null(static_cast<NullId>(rng.Uniform(next)));
      }
      return Value::Null(next++);
    }
    return Value::Int(rng.UniformInt(0, 2));
  };
  for (const char* name : {"R", "S"}) {
    CTable* t = db.MutableTable(name, 1);
    const size_t rows = 1 + rng.Uniform(3);
    for (size_t i = 0; i < rows; ++i) {
      ConditionPtr cond = Condition::True();
      if (rng.Bernoulli(0.3)) {
        cond = Condition::Eq(random_value(), random_value());
      }
      t->AddRow(Tuple{random_value()}, cond);
    }
  }
  return db;
}

// The reference D_t: ⋁ over every row of (cond_r ∧ "tuple_r = cand").
ConditionPtr FullFold(const CTable& t, const Tuple& cand) {
  ConditionPtr dt = Condition::False();
  for (const CTableRow& row : t.rows()) {
    dt = Condition::Or(
        std::move(dt),
        Condition::And(row.condition, TuplesEqualCondition(row.tuple, cand)));
  }
  return dt;
}

// Every tuple of `arity` over `domain`.
std::vector<Tuple> AllTuples(size_t arity, const std::vector<Value>& domain) {
  std::vector<Tuple> out = {Tuple{}};
  for (size_t i = 0; i < arity; ++i) {
    std::vector<Tuple> next;
    for (const Tuple& t : out) {
      for (const Value& v : domain) next.push_back(t.Concat(Tuple{v}));
    }
    out = std::move(next);
  }
  return out;
}

TEST(IndexedMembership, SameNodeAsTheFullFold) {
  const std::vector<Value> domain = {Value::Int(0), Value::Int(1),
                                     Value::Int(2), Value::Int(3)};
  const auto r = RAExpr::Scan("R");
  const auto s = RAExpr::Scan("S");
  // Unions and products put several rows, ground and null-carrying, behind
  // one tuple.
  const std::vector<RAExprPtr> plans = {
      RAExpr::Union(r, s),
      RAExpr::Union(RAExpr::Union(r, s), RAExpr::Intersect(r, s)),
      RAExpr::Union(RAExpr::Diff(r, s), s),
      RAExpr::Product(RAExpr::Union(r, s), RAExpr::Union(s, r)),
  };
  size_t null_rows = 0;
  size_t shared_buckets = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const CDatabase db = RandomCDatabase(seed);
    for (const RAExprPtr& plan : plans) {
      ConditionNormalizer norm;
      Result<CTable> t = EvalOnCTables(plan, db, EvalOptions{}, &norm);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      // A global condition that is not `true`, on a null the tables use.
      t->SetGlobalCondition(
          Condition::Or(Condition::Neq(Value::Null(0), Value::Int(1)),
                        Condition::Eq(Value::Null(0), Value::Int(2))));
      const ConditionPtr global = norm.Normalize(t->global_condition());
      ASSERT_FALSE(global->IsTrue());

      const RowIndex index(*t);
      null_rows += index.NullRows().size();
      for (const Tuple& cand : AllTuples(t->arity(), domain)) {
        if (index.ExactRows(cand).size() > 1) ++shared_buckets;
        const ConditionPtr indexed = TupleMembershipCondition(*t, index, cand);
        const ConditionPtr full = FullFold(*t, cand);
        const std::string where =
            "seed " + std::to_string(seed) + ", " + plan->ToString() +
            " at " + cand.ToString();
        EXPECT_EQ(indexed->ToString(), full->ToString()) << where;
        EXPECT_EQ(norm.Normalize(indexed).get(), norm.Normalize(full).get())
            << where;
        EXPECT_EQ(norm.Normalize(Condition::And(global, indexed)).get(),
                  norm.Normalize(Condition::And(global, full)).get())
            << where;
      }
    }
  }
  // The sweep exercised both halves of the index.
  EXPECT_GT(null_rows, 0u);
  EXPECT_GT(shared_buckets, 0u);
}

TEST(RowIndexTest, CandidatesAreExactRowsAndNullRowsInRowOrder) {
  CTable t(2);
  t.AddRow(Tuple{Value::Int(1), Value::Int(1)}, Condition::True());
  t.AddRow(Tuple{Value::Int(1), Value::Null(0)}, Condition::True());
  t.AddRow(Tuple{Value::Int(2), Value::Int(2)}, Condition::True());
  t.AddRow(Tuple{Value::Int(1), Value::Int(1)}, Condition::True());
  t.AddRow(Tuple{Value::Null(1), Value::Int(2)}, Condition::True());
  const RowIndex index(t);
  auto candidates = [&](const Tuple& cand) {
    std::vector<size_t> out;
    index.ForEachCandidate(cand, [&](size_t i) {
      out.push_back(i);
      return true;
    });
    return out;
  };
  EXPECT_EQ(index.ExactRows(Tuple{Value::Int(1), Value::Int(1)}),
            (std::vector<size_t>{0, 3}));
  EXPECT_EQ(index.NullRows(), (std::vector<size_t>{1, 4}));
  EXPECT_EQ(candidates(Tuple{Value::Int(1), Value::Int(1)}),
            (std::vector<size_t>{0, 1, 3, 4}));
  EXPECT_EQ(candidates(Tuple{Value::Int(7), Value::Int(7)}),
            (std::vector<size_t>{1, 4}));
  // A tuple with a null can match any row.
  EXPECT_EQ(candidates(Tuple{Value::Null(2), Value::Int(2)}),
            (std::vector<size_t>{0, 1, 2, 3, 4}));
  // The visit stops when the callback says so.
  std::vector<size_t> first;
  index.ForEachCandidate(Tuple{Value::Int(1), Value::Int(1)}, [&](size_t i) {
    first.push_back(i);
    return false;
  });
  EXPECT_EQ(first, (std::vector<size_t>{0}));
}

TEST(PossibleExtraction, OneCheckPerPossibleGroundTuple) {
  // 60 ground rows carrying three tuples, interleaved: every row of (1) and
  // of (2) is satisfiable, and every row of (3) normalizes to `false`.
  const Value x = Value::Null(0);
  CTable t(1);
  for (int k = 0; k < 20; ++k) {
    const Value c = Value::Int(1 + k % 4);
    t.AddRow(Tuple{Value::Int(1)}, Condition::Eq(x, c));
    t.AddRow(Tuple{Value::Int(2)}, Condition::Neq(x, c));
    t.AddRow(Tuple{Value::Int(3)},
             Condition::And(Condition::Eq(x, Value::Int(1)),
                            Condition::Eq(x, Value::Int(2))));
  }
  const std::vector<Value> domain = {Value::Int(1), Value::Int(2),
                                     Value::Int(3), Value::Int(4),
                                     Value::Int(5)};
  ConditionNormalizer norm;
  EvalStats stats;
  Result<Relation> possible =
      PossibleAnswersFromCTable(t, domain, &norm, 50'000'000, &stats);
  ASSERT_TRUE(possible.ok()) << possible.status().ToString();
  EXPECT_EQ(*possible,
            Relation(1, {Tuple{Value::Int(1)}, Tuple{Value::Int(2)}}));
  const OpCounters& extract = stats.at(EvalOp::kCTableExtract);
  EXPECT_EQ(extract.tuples_in, 60u);
  EXPECT_EQ(extract.probes, 2u);
  EXPECT_EQ(extract.tuples_out, 2u);
}

TEST(PossibleExtraction, NullRowGroundingsStillChecked) {
  // A null-carrying row is not skipped: each grounding its condition admits
  // is one check, and a ground row after it whose tuple one of those
  // groundings already produced costs nothing.
  CTable t(1);
  t.AddRow(Tuple{Value::Null(0)},
           Condition::Neq(Value::Null(0), Value::Int(3)));
  t.AddRow(Tuple{Value::Int(1)}, Condition::True());
  t.AddRow(Tuple{Value::Int(3)}, Condition::True());
  const std::vector<Value> domain = {Value::Int(1), Value::Int(2),
                                     Value::Int(3)};
  ConditionNormalizer norm;
  EvalStats stats;
  Result<Relation> possible =
      PossibleAnswersFromCTable(t, domain, &norm, 50'000'000, &stats);
  ASSERT_TRUE(possible.ok()) << possible.status().ToString();
  EXPECT_EQ(*possible,
            Relation(1, {Tuple{Value::Int(1)}, Tuple{Value::Int(2)},
                         Tuple{Value::Int(3)}}));
  // Groundings 1 and 2 of the null row, then the row carrying (3).
  EXPECT_EQ(stats.at(EvalOp::kCTableExtract).probes, 3u);
}

}  // namespace
}  // namespace incdb
