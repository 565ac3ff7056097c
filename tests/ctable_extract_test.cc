// Extraction from result c-tables on codes (ctables/code_ctable.h):
//
//  * the membership condition D_t built through a CodeRowIndex is the node a
//    fold over every row builds, on random c-tables with null-carrying rows
//    and a non-`true` global condition;
//  * possible-answer extraction stops checking a ground tuple once it is
//    known to be possible, rather than checking every row that carries it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ctables/code_ctable.h"
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

// A code query whose dictionary holds `t`'s constants and `domain`, and
// whose nulls are `t`'s and `more`.
std::unique_ptr<CTableQuery> QueryFor(const CTable& t,
                                      const std::vector<Value>& domain,
                                      std::set<NullId> more = {}) {
  const std::set<Value> constants = t.Constants();
  const std::set<NullId> own = t.Nulls();
  more.insert(own.begin(), own.end());
  return std::make_unique<CTableQuery>(*WorldEncoding::FromValues(
      std::vector<Value>(constants.begin(), constants.end()),
      std::vector<NullId>(more.begin(), more.end()), domain));
}

std::vector<uint32_t> Encode(const CTableQuery& q, const Tuple& t) {
  std::vector<uint32_t> row;
  for (const Value& v : t.values()) row.push_back(q.enc().EncodeBase(v));
  return row;
}

// The reference D_t: ⋁ over every row of (cond_r ∧ "tuple_r = cand").
uint32_t FullFold(CTableQuery* q, const CodeCTable& t, const uint32_t* cand) {
  std::vector<uint32_t> ops;
  for (size_t i = 0; i < t.rows(); ++i) {
    ops.push_back(q->arena().And(t.conds[i], q->RowsEqual(t.Row(i), cand,
                                                          t.arity)));
  }
  return q->arena().OrOf(&ops);
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
      Result<CTable> t = EvalOnCTables(plan, db);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      // A global condition that is not `true`, on a null the tables use.
      t->SetGlobalCondition(
          Condition::Or(Condition::Neq(Value::Null(0), Value::Int(1)),
                        Condition::Eq(Value::Null(0), Value::Int(2))));
      const std::unique_ptr<CTableQuery> q = QueryFor(*t, domain, {0});
      const CodeCTable ct = q->Import(*t);
      const uint32_t global = ct.global;
      ASSERT_NE(global, CondArena::kTrue);
      const auto term = [&](uint32_t x) { return q->TermValue(x); };

      const CodeRowIndex index(ct);
      null_rows += index.NullRows().size();
      for (const Tuple& tuple : AllTuples(ct.arity, domain)) {
        const std::vector<uint32_t> cand = Encode(*q, tuple);
        if (index.ExactRows(cand.data()).size() > 1) ++shared_buckets;
        const uint32_t indexed = q->Membership(ct, index, cand.data());
        const uint32_t full = FullFold(q.get(), ct, cand.data());
        const std::string where =
            "seed " + std::to_string(seed) + ", " + plan->ToString() +
            " at " + tuple.ToString();
        EXPECT_EQ(ExportCondition(q->arena(), indexed, term)->ToString(),
                  ExportCondition(q->arena(), full, term)->ToString())
            << where;
        EXPECT_EQ(indexed, full) << where;
        EXPECT_EQ(q->arena().And(global, indexed),
                  q->arena().And(global, full))
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
  const std::unique_ptr<CTableQuery> q =
      QueryFor(t, {Value::Int(7)}, {0, 1, 2});
  const CodeCTable ct = q->Import(t);
  const CodeRowIndex index(ct);
  auto candidates = [&](const Tuple& cand) {
    const std::vector<uint32_t> row = Encode(*q, cand);
    std::vector<uint32_t> out;
    index.ForEachCandidate(row.data(), [&](uint32_t i) {
      out.push_back(i);
      return true;
    });
    return out;
  };
  EXPECT_EQ(index.ExactRows(Encode(*q, Tuple{Value::Int(1), Value::Int(1)})
                                .data()),
            (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(index.NullRows(), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(candidates(Tuple{Value::Int(1), Value::Int(1)}),
            (std::vector<uint32_t>{0, 1, 3, 4}));
  EXPECT_EQ(candidates(Tuple{Value::Int(7), Value::Int(7)}),
            (std::vector<uint32_t>{1, 4}));
  // A row with a null can match any row.
  EXPECT_EQ(candidates(Tuple{Value::Null(2), Value::Int(2)}),
            (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  // The visit stops when the callback says so.
  std::vector<uint32_t> first;
  const std::vector<uint32_t> ones = Encode(*q, Tuple{Value::Int(1),
                                                      Value::Int(1)});
  index.ForEachCandidate(ones.data(), [&](uint32_t i) {
    first.push_back(i);
    return false;
  });
  EXPECT_EQ(first, (std::vector<uint32_t>{0}));
}

// The possible answers of `t` over `domain` through the code engine.
Result<Relation> PossibleOf(const CTable& t, const std::vector<Value>& domain,
                            EvalStats* stats) {
  const std::unique_ptr<CTableQuery> q = QueryFor(t, domain);
  const CodeCTable ct = q->Import(t);
  INCDB_ASSIGN_OR_RETURN(const SortedCodeRows rows,
                         q->Possible(ct, 50'000'000, stats));
  return q->Decode(rows);
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
  EvalStats stats;
  Result<Relation> possible = PossibleOf(t, domain, &stats);
  ASSERT_TRUE(possible.ok()) << possible.status().ToString();
  EXPECT_EQ(*possible,
            Relation(1, {Tuple{Value::Int(1)}, Tuple{Value::Int(2)}}));
  const OpCounters& extract = stats.at(EvalOp::kCTableExtract);
  EXPECT_EQ(extract.tuples_in, 60u);
  EXPECT_EQ(extract.probes, 2u);
  EXPECT_EQ(extract.tuples_out, 2u);
}

TEST(PossibleExtraction, NullRowGroundingsStillChecked) {
  // A null-carrying row is not skipped: each grounding its condition does
  // not already rule out is one check, and a ground row after it whose tuple one of those
  // groundings already produced costs nothing.
  CTable t(1);
  t.AddRow(Tuple{Value::Null(0)},
           Condition::Neq(Value::Null(0), Value::Int(3)));
  t.AddRow(Tuple{Value::Int(1)}, Condition::True());
  t.AddRow(Tuple{Value::Int(3)}, Condition::True());
  const std::vector<Value> domain = {Value::Int(1), Value::Int(2),
                                     Value::Int(3)};
  EvalStats stats;
  Result<Relation> possible = PossibleOf(t, domain, &stats);
  ASSERT_TRUE(possible.ok()) << possible.status().ToString();
  EXPECT_EQ(*possible,
            Relation(1, {Tuple{Value::Int(1)}, Tuple{Value::Int(2)},
                         Tuple{Value::Int(3)}}));
  // Groundings 1 and 2 of the null row, then the row carrying (3).
  EXPECT_EQ(stats.at(EvalOp::kCTableExtract).probes, 3u);
}

}  // namespace
}  // namespace incdb
