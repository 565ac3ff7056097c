#include "core/relation.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/columnar.h"

namespace incdb {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple{Value::Int(a), Value::Int(b)}; }

TEST(TupleTest, ProjectAndConcat) {
  Tuple t{Value::Int(1), Value::Str("a"), Value::Null(0)};
  Tuple p = t.Project({2, 0});
  EXPECT_EQ(p.arity(), 2u);
  EXPECT_EQ(p[0], Value::Null(0));
  EXPECT_EQ(p[1], Value::Int(1));

  Tuple c = p.Concat(Tuple{Value::Int(9)});
  EXPECT_EQ(c.arity(), 3u);
  EXPECT_EQ(c[2], Value::Int(9));
}

TEST(TupleTest, HasNull) {
  EXPECT_FALSE(T2(1, 2).HasNull());
  EXPECT_TRUE((Tuple{Value::Int(1), Value::Null(0)}).HasNull());
}

TEST(RelationTest, SetSemanticsDeduplicates) {
  Relation r(2);
  r.Add(T2(1, 2));
  r.Add(T2(1, 2));
  r.Add(T2(2, 3));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T2(1, 2)));
  EXPECT_FALSE(r.Contains(T2(3, 1)));
}

TEST(RelationTest, TuplesAreSortedCanonically) {
  Relation r(2);
  r.Add(T2(5, 1));
  r.Add(T2(1, 9));
  r.Add(T2(1, 2));
  const auto& ts = r.tuples();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], T2(1, 2));
  EXPECT_EQ(ts[1], T2(1, 9));
  EXPECT_EQ(ts[2], T2(5, 1));
}

TEST(RelationTest, EqualityIgnoresInsertionOrder) {
  Relation a(1), b(1);
  a.Add(Tuple{Value::Int(1)});
  a.Add(Tuple{Value::Int(2)});
  b.Add(Tuple{Value::Int(2)});
  b.Add(Tuple{Value::Int(1)});
  EXPECT_EQ(a, b);
}

TEST(RelationTest, CoddTableDetection) {
  // Paper Section 2: R is a naïve table (nulls repeat), S is a Codd table.
  Relation naive(3);
  naive.Add(Tuple{Value::Null(0), Value::Int(1), Value::Null(1)});
  naive.Add(Tuple{Value::Int(2), Value::Null(1), Value::Null(0)});
  EXPECT_FALSE(naive.IsCoddTable());

  Relation codd(3);
  codd.Add(Tuple{Value::Null(0), Value::Int(1), Value::Null(1)});
  codd.Add(Tuple{Value::Int(2), Value::Null(2), Value::Null(3)});
  EXPECT_TRUE(codd.IsCoddTable());

  EXPECT_EQ(naive.Nulls(), (std::set<NullId>{0, 1}));
  EXPECT_EQ(naive.Constants(), (std::set<Value>{Value::Int(1), Value::Int(2)}));
}

TEST(RelationTest, CompletePart) {
  Relation r(2);
  r.Add(T2(1, 2));
  r.Add(Tuple{Value::Int(2), Value::Null(0)});
  Relation c = r.CompletePart();
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.Contains(T2(1, 2)));
  EXPECT_TRUE(c.IsComplete());
  EXPECT_FALSE(r.IsComplete());
}

TEST(RelationTest, SubsetTest) {
  Relation a(1), b(1);
  a.Add(Tuple{Value::Int(1)});
  b.Add(Tuple{Value::Int(1)});
  b.Add(Tuple{Value::Int(2)});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
}

TEST(RelationTest, AddAllMergesSets) {
  Relation a(1), b(1);
  a.Add(Tuple{Value::Int(1)});
  b.Add(Tuple{Value::Int(1)});
  b.Add(Tuple{Value::Int(2)});
  a.AddAll(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(RelationTest, IsCompleteMemoInvalidatesOnMutation) {
  Relation r(2);
  r.Add(T2(1, 2));
  EXPECT_TRUE(r.IsComplete());
  // Adding a null tuple must flip the memoized answer immediately.
  r.Add(Tuple{Value::Int(3), Value::Null(0)});
  EXPECT_FALSE(r.IsComplete());
  // And stays false after further null-free additions.
  r.Add(T2(4, 5));
  EXPECT_FALSE(r.IsComplete());

  Relation s(1);
  s.Add(Tuple{Value::Null(1)});
  EXPECT_FALSE(s.IsComplete());
  Relation via_addall(1);
  via_addall.Add(Tuple{Value::Int(1)});
  EXPECT_TRUE(via_addall.IsComplete());
  via_addall.AddAll(s);  // merging an incomplete relation taints the memo
  EXPECT_FALSE(via_addall.IsComplete());
}

TEST(RelationTest, CopySharesStorageUntilMutation) {
  Relation a(2);
  a.Add(T2(1, 2));
  a.Add(T2(3, 4));
  a.tuples();  // canonicalize

  Relation b = a;
  EXPECT_TRUE(b.SharesStorageWith(a));
  EXPECT_EQ(b, a);

  // Mutating the copy must not disturb the original (copy-on-write).
  b.Add(T2(5, 6));
  EXPECT_FALSE(b.SharesStorageWith(a));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(a.Contains(T2(1, 2)));
  EXPECT_FALSE(a.Contains(T2(5, 6)));
}

TEST(RelationTest, PostBuildMutationInvalidatesMemoAndIndexesTogether) {
  // Regression for the delta-eval provenance index: the scan compiler reads
  // tuples() and IsComplete(), and the columnar engine reads Columnar(),
  // after arbitrary earlier mutations. A stale memo or index surviving a
  // post-build mutation would silently corrupt what they derive.
  Relation r(2);
  r.Add(T2(1, 10));
  r.Add(T2(2, 20));

  // Force every piece of derived state.
  EXPECT_TRUE(r.IsComplete());
  EXPECT_TRUE(r.Contains(T2(1, 10)));  // builds the hash-set index
  auto columnar = r.Columnar();

  // Mutate through Add: all derived state must drop or update at once.
  r.Add(Tuple{Value::Int(3), Value::Null(7)});
  EXPECT_FALSE(r.IsComplete());
  EXPECT_NE(r.Columnar(), columnar);
  EXPECT_EQ(r.Columnar()->ToRelation(), r);
  EXPECT_TRUE(r.Contains(Tuple{Value::Int(3), Value::Null(7)}));
  EXPECT_EQ(r.HashIndex().size(), r.size());
  EXPECT_EQ(r.Nulls(), (std::set<NullId>{7}));

  // Mutate through AddAll.
  columnar = r.Columnar();
  Relation more(2);
  more.Add(T2(4, 40));
  r.AddAll(more);
  EXPECT_NE(r.Columnar(), columnar);
  EXPECT_EQ(r.Columnar()->ToRelation(), r);
  EXPECT_FALSE(r.IsComplete());  // null tuple still present
  EXPECT_EQ(r.HashIndex().size(), r.size());

  // A copy taken before a mutation keeps the old derived state; only the
  // mutated side invalidates.
  columnar = r.Columnar();
  (void)r.IsComplete();
  Relation snapshot = r;
  r.Add(T2(5, 50));
  EXPECT_EQ(snapshot.Columnar(), columnar);
  EXPECT_NE(r.Columnar(), columnar);
  EXPECT_FALSE(snapshot.Contains(T2(5, 50)));
  EXPECT_TRUE(r.Contains(T2(5, 50)));
}

TEST(RelationTest, CopyAssignmentSharesDerivedStateUnderCoW) {
  // The vectorized path reads Columnar() off relations that were
  // copy-assigned around by drivers; the assignment must carry the cached
  // state over without aliasing future mutations.
  Relation r(2);
  r.Add(T2(1, 10));
  r.Add(T2(2, 20));
  auto columnar = r.Columnar();

  Relation assigned(2);
  assigned.Add(T2(9, 9));  // pre-existing state is fully replaced
  assigned = r;
  EXPECT_EQ(assigned, r);
  EXPECT_EQ(assigned.Columnar(), columnar);

  // Mutating the assignee drops only its own caches.
  assigned.Add(T2(3, 30));
  EXPECT_NE(assigned.Columnar(), columnar);
  EXPECT_EQ(assigned.Columnar()->ToRelation(), assigned);
  EXPECT_EQ(r.Columnar(), columnar);
}

TEST(RelationTest, MoveAssignmentStealsDerivedState) {
  Relation r(2);
  r.Add(T2(1, 10));
  r.Add(T2(2, 20));
  auto columnar = r.Columnar();
  const Relation expected = r;

  Relation target(2);
  target.Add(T2(7, 7));
  target = std::move(r);
  EXPECT_EQ(target, expected);
  // The cache moved with the content — no rebuild.
  EXPECT_EQ(target.Columnar(), columnar);

  // And stays on the usual invalidation lifecycle afterwards.
  target.Add(T2(8, 80));
  EXPECT_NE(target.Columnar(), columnar);
  EXPECT_EQ(target.Columnar()->ToRelation(), target);
}

}  // namespace
}  // namespace incdb
