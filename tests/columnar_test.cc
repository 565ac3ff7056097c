// Unit tests for the columnar (dictionary-encoded) relation form: dictionary
// sortedness and rank queries, cross-dictionary merges, null bitmaps and
// null-id columns, the Relation ↔ ColumnarRelation round-trip, and the
// Relation::Columnar() caching contract (shared by copies, stolen by moves,
// invalidated by mutation — the same lifecycle as HashIndex()).

#include "core/columnar.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/relation.h"
#include "workload/generators.h"

namespace incdb {
namespace {

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

  // Same object on both sides: identity translations over the same dict.
  DictMerge same = MergeDicts(a, a);
  EXPECT_EQ(same.dict, a);
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(same.from_a[i], static_cast<uint32_t>(i));
    EXPECT_EQ(same.from_b[i], static_cast<uint32_t>(i));
  }
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

TEST(ColumnarRelationTest, NullBitmapAndNullIdColumnsMatchCells) {
  Relation r = SampleRelation();
  auto col = r.Columnar();
  for (size_t c = 0; c < col->arity(); ++c) {
    bool any = false;
    for (size_t i = 0; i < col->rows(); ++i) {
      const Value& v = col->ValueAt(i, c);
      const bool bit =
          (col->null_bitmap(c)[i / 64] >> (i % 64) & uint64_t{1}) != 0;
      EXPECT_EQ(bit, v.is_null()) << i << "," << c;
      any |= v.is_null();
      if (col->ColumnHasNulls(c)) {
        EXPECT_EQ(col->null_ids(c)[i], v.is_null() ? v.null_id() : NullId{0})
            << i << "," << c;
      }
    }
    EXPECT_EQ(col->ColumnHasNulls(c), any) << c;
    if (!any) {
      EXPECT_TRUE(col->null_ids(c).empty()) << c;
    }
  }
  // Row-level null test agrees with the cells.
  for (size_t i = 0; i < col->rows(); ++i) {
    bool any = false;
    for (size_t c = 0; c < col->arity(); ++c) any |= col->ValueAt(i, c).is_null();
    EXPECT_EQ(col->RowHasNull(i), any) << i;
  }
}

TEST(ColumnarRelationTest, RoundTripsBitIdentically) {
  Relation r = SampleRelation();
  EXPECT_EQ(r.Columnar()->ToRelation(), r);

  Relation empty(2);
  EXPECT_EQ(empty.Columnar()->ToRelation(), empty);

  // 0-ary relations: {} and {()} must keep their row counts.
  Relation zero_empty(0);
  EXPECT_EQ(zero_empty.Columnar()->rows(), 0u);
  EXPECT_EQ(zero_empty.Columnar()->ToRelation(), zero_empty);
  Relation zero_unit(0);
  zero_unit.Add(Tuple{});
  EXPECT_EQ(zero_unit.Columnar()->rows(), 1u);
  EXPECT_EQ(zero_unit.Columnar()->ToRelation(), zero_unit);
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
      EXPECT_EQ(r.Columnar()->ToRelation(), r) << name << " seed " << seed;
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
  EXPECT_EQ(after->ToRelation(), r);

  // AddAll invalidates too; the donor keeps its own snapshot.
  Relation extra(3);
  extra.Add(Tuple{Value::Int(10), Value::Int(10), Value::Str("w")});
  auto donor = extra.Columnar();
  r.AddAll(extra);
  EXPECT_EQ(extra.Columnar(), donor);
  EXPECT_EQ(r.Columnar()->ToRelation(), r);
}

TEST(ColumnarCachingTest, MutatingACopyLeavesTheOriginalSnapshotIntact) {
  Relation r = SampleRelation();
  auto snapshot = r.Columnar();
  Relation copy = r;
  copy.Add(Tuple{Value::Int(42), Value::Int(42), Value::Str("q")});
  // The copy dropped the shared snapshot; the original still serves it.
  EXPECT_EQ(r.Columnar(), snapshot);
  EXPECT_NE(copy.Columnar(), snapshot);
  EXPECT_EQ(copy.Columnar()->ToRelation(), copy);
}

}  // namespace
}  // namespace incdb
