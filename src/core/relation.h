// Relation: a finite set of tuples over Const ∪ Null (a naïve table).
//
// Storage is a vector kept canonical (sorted, deduplicated) lazily: mutators
// mark the relation dirty and const accessors canonicalize on demand. This
// makes set-equality, subset tests and iteration deterministic while keeping
// bulk loads O(n log n).
//
// Tuple storage is copy-on-write: copying a relation canonicalizes it once
// and then shares the underlying vector, so the per-world database copies of
// the enumeration drivers are O(1) for every relation no valuation changes.
// Storage reachable from more than one relation is always canonical; mutators
// clone before writing, so copies never observe each other's changes.
//
// Membership is served by a lazily built hash-set index (expected O(1) per
// probe). The index is an immutable snapshot shared across copies and
// invalidated by mutation, so copying a relation never copies the index and
// repeated probes against a stable relation build it exactly once. The
// columnar form (Columnar()) is cached and shared the same way.

#ifndef INCDB_CORE_RELATION_H_
#define INCDB_CORE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/tuple.h"

namespace incdb {

class ColumnarRelation;

/// A set of same-arity tuples; the unit of incomplete data (a naïve table).
class Relation {
 public:
  /// An empty relation of the given arity.
  explicit Relation(size_t arity = 0) : arity_(arity) {}

  /// Builds a relation from tuples; all must have arity `arity`.
  Relation(size_t arity, std::vector<Tuple> tuples);

  // Copies share the (canonicalized) tuple storage and every cached index;
  // moves steal them. Mutating either side afterwards is safe (copy-on-
  // write) but, like all mutation, requires external synchronization.
  Relation(const Relation& o);
  Relation& operator=(const Relation& o);
  Relation(Relation&& o) noexcept;
  Relation& operator=(Relation&& o) noexcept;

  size_t arity() const { return arity_; }

  /// Number of distinct tuples.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// Adds a tuple (set semantics — duplicates are absorbed).
  void Add(Tuple t);

  /// Adds all tuples of `other` (arities must match).
  void AddAll(const Relation& other);

  /// Membership test (expected O(1) via the hash index).
  bool Contains(const Tuple& t) const;

  /// The hash-set view of the tuples. Built on first use, cached until the
  /// next mutation; the returned reference is invalidated by mutation.
  const std::unordered_set<Tuple, TupleHash>& HashIndex() const;

  /// The columnar (dictionary-encoded) form of this relation
  /// (core/columnar.h). Built on first use and cached exactly like
  /// HashIndex(): the snapshot is shared by copies and invalidated by
  /// mutation. Not thread-safe to build — force it on the owning thread
  /// before sharing the relation; the returned object is immutable and safe
  /// under concurrent readers.
  std::shared_ptr<const ColumnarRelation> Columnar() const;

  /// Canonical (sorted, deduplicated) tuple list.
  const std::vector<Tuple>& tuples() const;

  /// True if no tuple contains a null. Memoized (O(n) once per content);
  /// copies inherit the memo. Safe under concurrent readers.
  bool IsComplete() const;

  /// True if every null occurring in the relation occurs exactly once
  /// (Codd table; models SQL's unmarked nulls).
  bool IsCoddTable() const;

  /// Nulls occurring anywhere in the relation.
  std::set<NullId> Nulls() const;

  /// Constants occurring anywhere in the relation.
  std::set<Value> Constants() const;

  /// The subset of tuples without nulls (D_cmpl in the paper).
  Relation CompletePart() const;

  /// True when both relations share the same underlying tuple storage
  /// (copy-on-write aliasing; empty relations never share).
  bool SharesStorageWith(const Relation& o) const {
    return tuples_ != nullptr && tuples_ == o.tuples_;
  }

  bool operator==(const Relation& o) const;
  bool operator!=(const Relation& o) const { return !(*this == o); }

  /// True if every tuple of this relation is in `o`.
  bool IsSubsetOf(const Relation& o) const;

  /// "{(1, 2), (2, _0)}"
  std::string ToString() const;

 private:
  void EnsureCanonical() const;
  // Clones shared storage (and allocates empty storage) before a mutation.
  void EnsureUniqueStorage();
  static const std::vector<Tuple>& EmptyTuples();

  size_t arity_;
  // Shared copy-on-write tuple storage; null means "no tuples". Invariant:
  // storage reachable from more than one Relation is canonical.
  mutable std::shared_ptr<std::vector<Tuple>> tuples_;
  mutable bool dirty_ = false;
  // Immutable membership snapshot; shared by copies, reset on mutation.
  mutable std::shared_ptr<const std::unordered_set<Tuple, TupleHash>> index_;
  // Cached columnar snapshot (Columnar()); shared by copies, reset on
  // mutation.
  mutable std::shared_ptr<const ColumnarRelation> columnar_;
  // Memoized IsComplete: -1 unknown, 0 has nulls, 1 complete. Atomic so
  // concurrent readers of a shared relation may race to fill it benignly
  // (both compute the same value).
  mutable std::atomic<int8_t> complete_{-1};
};

}  // namespace incdb

#endif  // INCDB_CORE_RELATION_H_
