#include "core/relation.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/columnar.h"

namespace incdb {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple{Value::Int(a), Value::Int(b)}; }

// The relation whose body is `col`, with its tuples decoded from it.
Relation Decode(std::shared_ptr<const ColumnarRelation> col) {
  Relation r(std::move(col));
  r.tuples();
  return r;
}

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
  const std::vector<Tuple> want = {T2(1, 2), T2(1, 9), T2(5, 1)};
  const std::vector<Tuple> inputs[] = {
      {T2(5, 1), T2(1, 9), T2(1, 2)},
      want,                            // already strictly ascending
      {T2(1, 2), T2(5, 1), T2(1, 9)},  // one inversion, at the end
  };
  for (const std::vector<Tuple>& in : inputs) {
    Relation r(2);
    for (const Tuple& t : in) r.Add(t);
    EXPECT_EQ(r.tuples(), want);
    EXPECT_EQ(Relation(2, in).tuples(), want);
  }
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
  EXPECT_TRUE(r.Contains(T2(1, 10)));  // canonicalizes the rows
  auto columnar = r.Columnar();

  // Mutate through Add: all derived state must drop or update at once.
  r.Add(Tuple{Value::Int(3), Value::Null(7)});
  EXPECT_FALSE(r.IsComplete());
  EXPECT_NE(r.Columnar(), columnar);
  EXPECT_EQ(Decode(r.Columnar()), r);
  EXPECT_TRUE(r.Contains(Tuple{Value::Int(3), Value::Null(7)}));
  for (const Tuple& t : r.tuples()) EXPECT_TRUE(r.Contains(t));
  EXPECT_EQ(r.Nulls(), (std::set<NullId>{7}));

  // Mutate through AddAll.
  columnar = r.Columnar();
  Relation more(2);
  more.Add(T2(4, 40));
  r.AddAll(more);
  EXPECT_NE(r.Columnar(), columnar);
  EXPECT_EQ(Decode(r.Columnar()), r);
  EXPECT_FALSE(r.IsComplete());  // null tuple still present
  EXPECT_TRUE(r.Contains(T2(4, 40)));
  for (const Tuple& t : r.tuples()) EXPECT_TRUE(r.Contains(t));

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
  EXPECT_EQ(Decode(assigned.Columnar()), assigned);
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
  EXPECT_EQ(Decode(target.Columnar()), target);
}

// A relation whose body is columns answers every reader like the relation
// built from the same tuples, and builds tuples only when asked.
std::vector<Relation> BodyCases() {
  std::vector<Relation> cases;
  Relation mixed(3);
  mixed.Add(Tuple{Value::Int(1), Value::Null(4), Value::Str("it's")});
  mixed.Add(Tuple{Value::Int(-7), Value::Int(5), Value::Str("b")});
  mixed.Add(Tuple{Value::Null(4), Value::Int(5), Value::Str("")});
  mixed.Add(Tuple{Value::Int(1), Value::Null(9), Value::Str("a")});
  cases.push_back(mixed);
  Relation complete(2);
  complete.Add(T2(3, 4));
  complete.Add(T2(1, 2));
  cases.push_back(complete);
  cases.push_back(Relation(2));  // no rows
  cases.push_back(Relation(0));  // {}
  Relation unit(0);
  unit.Add(Tuple{});
  cases.push_back(unit);  // {()}
  return cases;
}

TEST(RelationTest, ColumnarBodyAgreesWithTupleBody) {
  for (const Relation& tuples : BodyCases()) {
    const std::string name = tuples.ToString();
    const Relation columns(ColumnarRelation::FromRelation(tuples));
    EXPECT_EQ(columns.arity(), tuples.arity()) << name;
    EXPECT_EQ(columns.size(), tuples.size()) << name;
    EXPECT_EQ(columns.empty(), tuples.empty()) << name;
    EXPECT_EQ(columns.IsComplete(), tuples.IsComplete()) << name;
    EXPECT_EQ(columns.ToString(), name);
    EXPECT_EQ(columns.Nulls(), tuples.Nulls()) << name;
    EXPECT_EQ(columns.Constants(), tuples.Constants()) << name;
    EXPECT_EQ(columns.IsCoddTable(), tuples.IsCoddTable()) << name;
    EXPECT_TRUE(columns == tuples) << name;
    EXPECT_TRUE(tuples == columns) << name;
    EXPECT_TRUE(columns.IsSubsetOf(tuples) && tuples.IsSubsetOf(columns))
        << name;
    EXPECT_EQ(columns.CompletePart(), tuples.CompletePart()) << name;
    EXPECT_EQ(columns.CompletePart().ToString(),
              tuples.CompletePart().ToString())
        << name;
    // None of the readers above built tuples.
    EXPECT_NE(columns.ColumnarIfBuilt(), nullptr) << name;

    // Copies and moves keep the body; the copy shares it.
    Relation copy = columns;
    EXPECT_TRUE(copy.SharesStorageWith(columns) || columns.empty()) << name;
    EXPECT_EQ(copy, tuples) << name;
    Relation moved = std::move(copy);
    EXPECT_EQ(moved, tuples) << name;
    Relation assigned(7);
    assigned = moved;
    EXPECT_EQ(assigned, tuples) << name;

    // tuples() and membership decode the rows.
    EXPECT_EQ(columns.tuples(), tuples.tuples()) << name;
    for (const Tuple& t : tuples.tuples()) {
      EXPECT_TRUE(moved.Contains(t)) << name << " " << t.ToString();
    }
    if (tuples.arity() == 2) {
      EXPECT_FALSE(moved.Contains(T2(99, 99))) << name;
    }

    // Add afterwards decodes, then mutates only this relation.
    Relation grown = columns;
    Relation expected = tuples;
    Tuple extra(std::vector<Value>(tuples.arity(), Value::Int(42)));
    grown.Add(extra);
    expected.Add(extra);
    EXPECT_EQ(grown, expected) << name;
    EXPECT_EQ(grown.tuples(), expected.tuples()) << name;
    EXPECT_EQ(grown.size(), expected.size()) << name;
    EXPECT_EQ(columns, tuples) << name;  // the source is unchanged
  }
}

TEST(RelationTest, ContainsAgreesWithLinearScanOnBothBodies) {
  // Probes: every row of every case, plus values between, below and above
  // the stored ones, of each kind.
  const std::vector<Value> fillers = {
      Value::Null(0), Value::Null(5),  Value::Int(-8), Value::Int(0),
      Value::Int(2),  Value::Int(99),  Value::Str(""), Value::Str("aa"),
      Value::Str("it's"), Value::Str("zz")};
  const std::vector<Relation> cases = BodyCases();
  for (const Relation& base : cases) {
    const std::string name = base.ToString();
    std::vector<Tuple> probes;
    for (const Relation& other : cases) {
      if (other.arity() != base.arity()) continue;
      for (const Tuple& t : other.tuples()) probes.push_back(t);
    }
    for (const Value& v : fillers) {
      probes.push_back(Tuple(std::vector<Value>(base.arity(), v)));
      for (const Tuple& t : base.tuples()) {
        for (size_t c = 0; c < base.arity(); ++c) {
          std::vector<Value> vals = t.values();
          vals[c] = v;
          probes.push_back(Tuple(std::move(vals)));
        }
      }
    }
    probes.push_back(Tuple{Value::Int(1)});  // wrong arity (or the 1-ary row)

    // A dirty tuple body: rows added in reverse order, twice.
    Relation dirty(base.arity());
    for (int round = 0; round < 2; ++round) {
      const std::vector<Tuple>& rows = base.tuples();
      for (auto it = rows.rbegin(); it != rows.rend(); ++it) dirty.Add(*it);
    }
    // Two columnar bodies: over the relation's own dictionary, and over a
    // wider one holding every filler.
    const Relation narrow(ColumnarRelation::FromRelation(base));
    std::vector<Value> cells = fillers;
    for (const Tuple& t : base.tuples()) {
      for (const Value& v : t.values()) cells.push_back(v);
    }
    auto dict = ValueDict::Build(cells);
    std::vector<std::vector<uint32_t>> cols(base.arity());
    for (const Tuple& t : base.tuples()) {
      for (size_t c = 0; c < base.arity(); ++c) {
        cols[c].push_back(dict->Find(t[c]));
      }
    }
    const Relation wide(std::make_shared<const ColumnarRelation>(
        base.arity(), base.size(), dict, std::move(cols)));
    const Relation narrow_before = narrow;
    const Relation wide_before = wide;

    for (const Tuple& p : probes) {
      bool linear = false;
      for (const Tuple& t : base.tuples()) linear = linear || t == p;
      EXPECT_EQ(dirty.Contains(p), linear) << name << " " << p.ToString();
      EXPECT_EQ(narrow.Contains(p), linear) << name << " " << p.ToString();
      EXPECT_EQ(wide.Contains(p), linear) << name << " " << p.ToString();
    }
    // Membership read the columns and decoded no tuples.
    if (!base.empty()) {
      EXPECT_TRUE(narrow.SharesStorageWith(narrow_before)) << name;
      EXPECT_TRUE(wide.SharesStorageWith(wide_before)) << name;
    }
  }
  // 0-ary: {} holds nothing, {()} holds the empty tuple.
  EXPECT_FALSE(Relation(0).Contains(Tuple{}));
  Relation unit(0);
  unit.Add(Tuple{});
  EXPECT_TRUE(unit.Contains(Tuple{}));
  EXPECT_TRUE(Relation(ColumnarRelation::FromRelation(unit)).Contains(Tuple{}));
  EXPECT_FALSE(
      Relation(ColumnarRelation::FromRelation(Relation(0))).Contains(Tuple{}));
}

TEST(RelationTest, ColumnarBodiesOverDifferentDictionariesCompareByValue) {
  const Relation base = BodyCases()[0];
  // The same rows encoded against a wider dictionary compare equal.
  std::vector<Value> cells;
  for (const Tuple& t : base.tuples()) {
    for (const Value& v : t.values()) cells.push_back(v);
  }
  cells.push_back(Value::Int(0));
  cells.push_back(Value::Null(0));
  auto dict = ValueDict::Build(cells);
  std::vector<std::vector<uint32_t>> cols(base.arity());
  for (const Tuple& t : base.tuples()) {
    for (size_t c = 0; c < base.arity(); ++c) {
      cols[c].push_back(dict->Find(t[c]));
    }
  }
  const Relation wide(std::make_shared<const ColumnarRelation>(
      base.arity(), base.size(), dict, std::move(cols)));
  const Relation narrow(ColumnarRelation::FromRelation(base));
  EXPECT_EQ(wide, narrow);
  EXPECT_EQ(wide.Nulls(), base.Nulls());
  EXPECT_EQ(wide.IsComplete(), base.IsComplete());
  EXPECT_EQ(wide.CompletePart(), base.CompletePart());
  EXPECT_EQ(wide.ToString(), base.ToString());
}

}  // namespace
}  // namespace incdb
