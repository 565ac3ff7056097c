// Relation: a finite set of tuples over Const ∪ Null (a naïve table).
//
// A relation holds one of two bodies:
//   * a tuple body: a vector kept canonical (sorted, deduplicated) lazily.
//     Mutators mark the relation dirty and const accessors canonicalize on
//     demand, which keeps bulk loads O(n log n) and makes set-equality,
//     subset tests and iteration deterministic;
//   * a columnar body: an immutable ColumnarRelation (core/columnar.h)
//     whose rows are canonical by construction. The columnar engine answers
//     with one. size(), empty(), IsComplete(), Columnar(), Contains(), ==,
//     ToString() and the other readers answer from the columns; tuples are
//     built from them only by tuples() or a mutator.
//
// Storage is copy-on-write: copying a relation canonicalizes it once and
// then shares the underlying vector (or columns), so the per-world database
// copies of the enumeration drivers are O(1) for every relation no
// valuation changes. Storage reachable from more than one relation is
// always canonical; mutators clone before writing, so copies never observe
// each other's changes.
//
// Membership is a binary search over the canonical rows of either body
// (O(log n) per probe), so it builds nothing on a canonical relation. The
// columnar form of a tuple body (Columnar()) is built lazily, shared by
// copies and invalidated by mutation.
//
// Every lazy build (canonical order, tuples from columns, the columnar
// form) writes the relation it is called on, so it is not
// thread-safe: the single owner builds, and whoever shares a relation
// between threads forces what the readers read first (DatabaseSnapshot and
// PlanCache do). Copying a relation reads it without writing once it is
// canonical, so concurrent readers may each copy a shared relation and
// build on their copy.

#ifndef INCDB_CORE_RELATION_H_
#define INCDB_CORE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
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

  /// A relation whose body is `columns`; tuples are built from it only on
  /// demand.
  explicit Relation(std::shared_ptr<const ColumnarRelation> columns);

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

  /// Membership test: a binary search over the canonical rows, reading the
  /// cells of a columnar body without decoding it (canonicalizes a dirty
  /// tuple body first).
  bool Contains(const Tuple& t) const;

  /// The columnar (dictionary-encoded) form of this relation
  /// (core/columnar.h): the body itself when the relation holds columns,
  /// otherwise built on first use and cached (the form is shared by copies
  /// and invalidated by mutation). Not
  /// thread-safe to build — force it on the owning thread before sharing
  /// the relation; the returned object is immutable and safe under
  /// concurrent readers.
  std::shared_ptr<const ColumnarRelation> Columnar() const;

  /// The columnar form if the relation holds one (its body, or a cached or
  /// adopted form), without building it; null otherwise.
  const ColumnarRelation* ColumnarIfBuilt() const { return columnar_.get(); }

  /// Installs `form` as the columnar form. `form` must encode exactly this
  /// relation's rows, against any dictionary that holds their values;
  /// DatabaseSnapshot encodes every relation against one dictionary this
  /// way. A tuple body is left as it is, so SharesStorageWith still holds
  /// across the call.
  void AdoptColumnar(std::shared_ptr<const ColumnarRelation> form);

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

  /// True when both relations share the same underlying storage
  /// (copy-on-write aliasing): the same tuple vector, or, when neither holds
  /// tuples, the same columnar body. Empty tuple bodies never share.
  bool SharesStorageWith(const Relation& o) const {
    if (tuples_ != nullptr || o.tuples_ != nullptr) {
      return tuples_ == o.tuples_;
    }
    return columnar_ != nullptr && columnar_ == o.columnar_;
  }

  bool operator==(const Relation& o) const;
  bool operator!=(const Relation& o) const { return !(*this == o); }

  /// True if every tuple of this relation is in `o`.
  bool IsSubsetOf(const Relation& o) const;

  /// "{(1, 2), (2, _0)}"
  std::string ToString() const;

 private:
  // True when columnar_ is the body (no tuples were given or built).
  bool HoldsColumns() const {
    return tuples_ == nullptr && columnar_ != nullptr;
  }
  void EnsureCanonical() const;
  // Clones shared storage, or decodes a columnar body, before a mutation.
  void EnsureUniqueStorage();
  // Cell `c` of canonical row `row`, read from whichever body is held.
  const Value& Cell(size_t row, size_t c) const;
  // Canonical row `row` against `t`, lexicographically.
  std::strong_ordering CompareRow(size_t row, const Tuple& t) const;
  // Calls `fn` with every cell of the canonical rows.
  template <class Fn>
  void ForEachCell(Fn fn) const;
  static const std::vector<Tuple>& EmptyTuples();

  size_t arity_;
  // Shared copy-on-write tuple storage. Null means "no tuples" unless
  // columnar_ is set, which is then the body. Invariant: storage reachable
  // from more than one Relation is canonical.
  mutable std::shared_ptr<std::vector<Tuple>> tuples_;
  mutable bool dirty_ = false;
  // The columnar body, or the cached columnar form of the tuple body
  // (Columnar()); shared by copies, reset on mutation.
  mutable std::shared_ptr<const ColumnarRelation> columnar_;
  // Memoized IsComplete: -1 unknown, 0 has nulls, 1 complete. Atomic so
  // concurrent readers of a shared relation may race to fill it benignly
  // (both compute the same value).
  mutable std::atomic<int8_t> complete_{-1};
};

}  // namespace incdb

#endif  // INCDB_CORE_RELATION_H_
