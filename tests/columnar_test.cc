// Unit tests for the columnar (dictionary-encoded) relation form: dictionary
// sortedness and rank queries, cross-dictionary merges, the Relation ↔
// ColumnarRelation round-trip, and the Relation::Columnar() caching contract
// (shared by copies, stolen by moves, invalidated by mutation), and the
// encoder against ValueDict::Build + Find on random relations.

#include "core/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/relation.h"
#include "workload/generators.h"

namespace incdb {
namespace {

// The relation whose body is `col`, with its tuples decoded from it.
Relation Decode(std::shared_ptr<const ColumnarRelation> col) {
  Relation r(std::move(col));
  r.tuples();
  return r;
}

TEST(ValueDictTest, BuildSortsDeduplicatesAndCountsNulls) {
  auto dict = ValueDict::Build({Value::Int(7), Value::Null(3), Value::Int(1),
                                Value::Str("x"), Value::Int(7), Value::Null(1),
                                Value::Null(3)});
  // nulls < ints < strings; duplicates collapse.
  ASSERT_EQ(dict->size(), 5u);
  EXPECT_EQ(dict->values[0], Value::Null(1));
  EXPECT_EQ(dict->values[1], Value::Null(3));
  EXPECT_EQ(dict->values[2], Value::Int(1));
  EXPECT_EQ(dict->values[3], Value::Int(7));
  EXPECT_EQ(dict->values[4], Value::Str("x"));
  EXPECT_EQ(dict->null_end, 2u);
  for (size_t i = 0; i < dict->size(); ++i) {
    EXPECT_EQ(dict->Find(dict->values[i]), static_cast<uint32_t>(i)) << i;
  }
}

TEST(ValueDictTest, RankQueriesMatchValueOrder) {
  auto dict = ValueDict::Build({Value::Int(10), Value::Int(20), Value::Int(30)});
  EXPECT_EQ(dict->Find(Value::Int(15)), ValueDict::kNotFound);
  EXPECT_EQ(dict->LowerBound(Value::Int(15)), 1u);  // first code with v >= 15
  EXPECT_EQ(dict->UpperBound(Value::Int(20)), 2u);  // first code with v > 20
  EXPECT_EQ(dict->LowerBound(Value::Int(20)), 1u);
  EXPECT_EQ(dict->LowerBound(Value::Int(99)), dict->size());
  // Nulls sort below every int: every int rank is past them.
  EXPECT_EQ(dict->LowerBound(Value::Null(5)), 0u);
}

TEST(ValueDictTest, MergeDictsTranslationsPreserveOrder) {
  auto a = ValueDict::Build({Value::Int(1), Value::Int(3), Value::Null(2)});
  auto b = ValueDict::Build({Value::Int(2), Value::Int(3), Value::Str("s")});
  DictMerge m = MergeDicts(a, b);
  ASSERT_EQ(m.dict->size(), 5u);  // ⊥2, 1, 2, 3, "s"
  ASSERT_EQ(m.from_a.size(), a->size());
  ASSERT_EQ(m.from_b.size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(m.dict->values[m.from_a[i]], a->values[i]) << i;
  }
  for (size_t i = 0; i < b->size(); ++i) {
    EXPECT_EQ(m.dict->values[m.from_b[i]], b->values[i]) << i;
  }
  // Order-preserving: translated codes are strictly increasing.
  for (size_t i = 1; i < a->size(); ++i) {
    EXPECT_LT(m.from_a[i - 1], m.from_a[i]);
  }

  // Same object on both sides: the codes already agree, so the merge is
  // the dictionary itself and builds no translations.
  DictMerge same = MergeDicts(a, a);
  EXPECT_EQ(same.dict, a);
  EXPECT_TRUE(same.from_a.empty());
  EXPECT_TRUE(same.from_b.empty());
}

Relation SampleRelation() {
  Relation r(3);
  r.Add(Tuple{Value::Int(1), Value::Null(4), Value::Str("a")});
  r.Add(Tuple{Value::Int(2), Value::Int(5), Value::Str("b")});
  r.Add(Tuple{Value::Null(7), Value::Int(5), Value::Str("a")});
  r.Add(Tuple{Value::Int(1), Value::Null(4), Value::Str("a")});  // dup
  return r;
}

TEST(ColumnarRelationTest, EncodesCanonicalRowsColumnMajor) {
  Relation r = SampleRelation();
  auto col = r.Columnar();
  ASSERT_EQ(col->arity(), 3u);
  ASSERT_EQ(col->rows(), r.size());  // dedup happened in the relation
  // Decoded cells match the canonical tuples cell for cell.
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(col->ValueAt(i, c), r.tuples()[i][c]) << i << "," << c;
    }
  }
  // Code rows are lexicographically sorted and strict (rows deduplicated).
  for (size_t i = 1; i < col->rows(); ++i) {
    bool less = false;
    for (size_t c = 0; c < 3 && !less; ++c) {
      ASSERT_LE(col->col(c)[i - 1], col->col(c)[i]);
      less = col->col(c)[i - 1] < col->col(c)[i];
      if (!less) {
        ASSERT_EQ(col->col(c)[i - 1], col->col(c)[i]);
      }
    }
    EXPECT_TRUE(less) << "rows " << i - 1 << " and " << i;
  }
}

TEST(ColumnarRelationTest, RoundTripsBitIdentically) {
  Relation r = SampleRelation();
  EXPECT_EQ(Decode(r.Columnar()), r);

  Relation empty(2);
  EXPECT_EQ(Decode(empty.Columnar()), empty);

  // 0-ary relations: {} and {()} must keep their row counts.
  Relation zero_empty(0);
  EXPECT_EQ(zero_empty.Columnar()->rows(), 0u);
  EXPECT_EQ(Decode(zero_empty.Columnar()), zero_empty);
  Relation zero_unit(0);
  zero_unit.Add(Tuple{});
  EXPECT_EQ(zero_unit.Columnar()->rows(), 1u);
  EXPECT_EQ(Decode(zero_unit.Columnar()), zero_unit);
}

TEST(ColumnarRelationTest, RandomRelationsRoundTrip) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    RandomDbConfig cfg;
    cfg.arities = {1, 2, 3};
    cfg.rows_per_relation = 40;
    cfg.domain_size = 6;
    cfg.null_density = 0.25;
    cfg.null_reuse = 0.5;
    cfg.string_density = 0.3;
    cfg.seed = seed;
    Database db = MakeRandomDatabase(cfg);
    for (const auto& name : db.schema().RelationNames()) {
      const Relation& r = db.GetRelation(name);
      EXPECT_EQ(Decode(r.Columnar()), r) << name << " seed " << seed;
    }
  }
}

TEST(ColumnarRelationTest, FromRelationMatchesBuildAndFind) {
  // The encoder sorts cells by kind as plain keys; its dictionary and codes
  // must be exactly those of ValueDict::Build over every cell plus Find.
  std::mt19937_64 rng(11);
  const std::vector<std::string> strings = {"", "'", "''", "a'b", "it's",
                                            "a", "ab", "b", " ", "\xff"};
  auto random_value = [&]() -> Value {
    switch (rng() % 6) {
      case 0:
        return Value::Null(static_cast<NullId>(
            rng() % 2 == 0 ? rng() % 8 : UINT32_MAX - rng() % 3));
      case 1:
        return Value::Int(rng() % 2 == 0 ? INT64_MIN + rng() % 3
                                         : INT64_MAX - rng() % 3);
      case 2:
        return Value::Str(strings[rng() % strings.size()]);
      default:
        return Value::Int(static_cast<int64_t>(rng() % 21) - 10);
    }
  };
  for (int round = 0; round < 200; ++round) {
    const size_t arity = rng() % 4;
    Relation r(arity);
    const size_t rows = rng() % 40;
    for (size_t i = 0; i < rows; ++i) {
      std::vector<Value> vals;
      for (size_t c = 0; c < arity; ++c) vals.push_back(random_value());
      r.Add(Tuple(std::move(vals)));
    }
    std::vector<Value> cells;
    for (const Tuple& t : r.tuples()) {
      for (const Value& v : t.values()) cells.push_back(v);
    }
    const auto expected = ValueDict::Build(cells);
    const auto form = ColumnarRelation::FromRelation(r);
    ASSERT_EQ(form->dict().values, expected->values) << r.ToString();
    EXPECT_EQ(form->dict().null_end, expected->null_end) << r.ToString();
    ASSERT_EQ(form->rows(), r.size());
    for (size_t row = 0; row < r.size(); ++row) {
      for (size_t c = 0; c < arity; ++c) {
        EXPECT_EQ(form->col(c)[row], expected->Find(r.tuples()[row][c]))
            << r.ToString() << " row " << row << " col " << c;
      }
    }
  }
}

TEST(ColumnarCachingTest, SnapshotIsCachedAndSharedByCopies) {
  Relation r = SampleRelation();
  auto first = r.Columnar();
  EXPECT_EQ(r.Columnar(), first);  // cached, not rebuilt

  Relation copy = r;  // CoW copy shares the cached snapshot
  EXPECT_EQ(copy.Columnar(), first);

  Relation moved = std::move(copy);  // move steals it
  EXPECT_EQ(moved.Columnar(), first);
}

TEST(ColumnarCachingTest, MutationInvalidatesTheSnapshot) {
  Relation r = SampleRelation();
  auto before = r.Columnar();
  r.Add(Tuple{Value::Int(9), Value::Int(9), Value::Str("z")});
  auto after = r.Columnar();
  EXPECT_NE(after, before);
  EXPECT_EQ(after->rows(), r.size());
  EXPECT_EQ(Decode(after), r);

  // AddAll invalidates too; the donor keeps its own snapshot.
  Relation extra(3);
  extra.Add(Tuple{Value::Int(10), Value::Int(10), Value::Str("w")});
  auto donor = extra.Columnar();
  r.AddAll(extra);
  EXPECT_EQ(extra.Columnar(), donor);
  EXPECT_EQ(Decode(r.Columnar()), r);
}

TEST(ColumnarCachingTest, MutatingACopyLeavesTheOriginalSnapshotIntact) {
  Relation r = SampleRelation();
  auto snapshot = r.Columnar();
  Relation copy = r;
  copy.Add(Tuple{Value::Int(42), Value::Int(42), Value::Str("q")});
  // The copy dropped the shared snapshot; the original still serves it.
  EXPECT_EQ(r.Columnar(), snapshot);
  EXPECT_NE(copy.Columnar(), snapshot);
  EXPECT_EQ(Decode(copy.Columnar()), copy);
}

}  // namespace
}  // namespace incdb
