// Columnar (dictionary-encoded) storage for relations.
//
// A ColumnarRelation is the column-major twin of a canonical Relation: every
// distinct value of the relation lives once in a sorted dictionary, and each
// column stores one 32-bit dictionary code per row. Because the dictionary
// is sorted by the total Value order, code order *is* value order within one
// dictionary — equality and order comparisons over a column become integer
// comparisons over a dense vector, which is what the batch-vectorized
// kernels in engine/vectorized.h and the SQL evaluator (sql/eval.h) iterate
// over. Rows follow the canonical tuple order of the source relation, so
// code rows are lexicographically sorted and deduplicated, and set
// operations run as sorted-run merges.
//
// Nulls sort before all constants, so `code < dict().null_end` is the null
// test inside comparison loops.
//
// A dictionary may hold more values than a relation encoded against it
// uses: every relation of a DatabaseSnapshot shares the snapshot's one
// dictionary (service/snapshot.h), so codes of two base relations compare
// without any merge. Relations outside a snapshot, literals, Δ and engine
// answers carry their own.
//
// Relation caches its ColumnarRelation: built on first use, shared
// structurally by copies (copy-on-write), invalidated by mutation. A
// Relation may also hold a ColumnarRelation as its body (the columnar
// engine's and the SQL evaluator's answers), building tuples from it only
// on demand.
// ColumnarRelation itself is immutable once built and therefore safe to
// share across threads.

#ifndef INCDB_CORE_COLUMNAR_H_
#define INCDB_CORE_COLUMNAR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/tuple.h"

namespace incdb {

class Relation;

/// Sorted dictionary of the distinct values of one relation (or of one
/// intermediate batch result). `values` is strictly ascending in the total
/// Value order (nulls < ints < strings); `null_end` is the number of leading
/// entries that are marked nulls.
struct ValueDict {
  std::vector<Value> values;
  uint32_t null_end = 0;

  static constexpr uint32_t kNotFound = std::numeric_limits<uint32_t>::max();

  size_t size() const { return values.size(); }

  /// Code of `v`, or kNotFound.
  uint32_t Find(const Value& v) const;
  /// First code whose value is >= v (== size() when none).
  uint32_t LowerBound(const Value& v) const;
  /// First code whose value is > v (== size() when none).
  uint32_t UpperBound(const Value& v) const;

  /// Builds the sorted dictionary of `cells` (consumed; need not be sorted
  /// or unique) with null_end filled in.
  static std::shared_ptr<const ValueDict> Build(std::vector<Value> cells);
};

/// Merge plan for comparing codes across two dictionaries: `dict` is the
/// sorted union, and `from_a[c]` / `from_b[c]` translate old codes into it.
/// The translations are order-preserving, so rows sorted under the old
/// dictionary stay sorted after remapping.
struct DictMerge {
  std::shared_ptr<const ValueDict> dict;
  std::vector<uint32_t> from_a;
  std::vector<uint32_t> from_b;
};

/// Merges two dictionaries (O(|a| + |b|) Value comparisons). When `a` and
/// `b` are the same object the codes already agree: `dict` is `a` and both
/// translations are left empty.
DictMerge MergeDicts(const std::shared_ptr<const ValueDict>& a,
                     const std::shared_ptr<const ValueDict>& b);

/// The permutation that orders rows 0..rows-1 lexicographically by the codes
/// of `cols` (each `rows` long, every code below `code_bound`). Stable: rows
/// with equal codes keep their order. An LSD radix sort, columns last to
/// first, one counting pass per byte of the ceil(log2 code_bound) code bits;
/// a pass whose byte is the same in every row is skipped.
std::vector<uint32_t> SortedRowOrder(
    const std::vector<const std::vector<uint32_t>*>& cols, size_t rows,
    size_t code_bound);

/// Sorts the rows of `cols` lexicographically by code and drops duplicates,
/// so the rows become canonical. Rows that already ascend, as after a
/// prefix projection of a canonical table, are recognised in one pass and
/// only deduplicated; otherwise SortedRowOrder orders them. Every code is
/// below `code_bound`. `*rows` is the row count in and out (0-ary rows are
/// all equal, so they keep at most one).
void CompactRows(size_t arity, size_t code_bound,
                 std::vector<std::vector<uint32_t>>* cols, size_t* rows);

/// Rewrites the codes of `cols` into the returned dictionary, which holds
/// exactly the values they name. A code below dict.size() names
/// dict.values[code]; code dict.size() + k names extra[k], a value `dict`
/// lacks (`extra` need not be sorted). The new codes keep the order of the
/// values they name, so rows that ascend over `dict` alone still ascend; a
/// row naming an extra value may need CompactRows afterwards. The used codes
/// are found by marking, or, when the cells are far fewer than the codes
/// (a point lookup in a large snapshot dictionary), by sorting the cells, so
/// the work follows the smaller of the two.
std::shared_ptr<const ValueDict> CompactDict(
    const ValueDict& dict, const std::vector<Value>& extra,
    std::vector<std::vector<uint32_t>>* cols);

/// Merges `sources` (at least one) into one dictionary, left to right.
/// (*into)[i] translates the codes of sources[i] into it; it stays empty
/// when those codes need no translation (sources[0] when nothing was
/// merged into it, or a source without values).
std::shared_ptr<const ValueDict> MergeDictList(
    const std::vector<std::shared_ptr<const ValueDict>>& sources,
    std::vector<std::vector<uint32_t>>* into);

/// Row ids grouped by a 64-bit hash of each row's key, for equality lookups
/// in O(1): the columnar engine's join build side and 3VL difference, and
/// the SQL evaluator's equi-probes and IN lookups. The bucket count is the
/// power of two >= the row count and a row's bucket is the top bits of its
/// hash times the 64-bit golden ratio, so building costs O(rows) whatever
/// the dictionary's size. Hashes collide: callers compare the candidates'
/// key codes.
class RowHashIndex {
 public:
  /// Indexes rows 0..rows-1 (at most UINT32_MAX) by key_hash(row).
  template <class KeyHash>
  RowHashIndex(size_t rows, KeyHash key_hash)
      : bits_(rows <= 1 ? 0 : static_cast<int>(std::bit_width(rows - 1))) {
    const size_t buckets = size_t{1} << bits_;
    std::vector<uint32_t> row_bucket(rows);
    start_.assign(buckets + 1, 0);
    for (size_t i = 0; i < rows; ++i) {
      row_bucket[i] = static_cast<uint32_t>(Bucket(key_hash(i)));
      ++start_[row_bucket[i]];
    }
    // Running sums make start_[b] the end of bucket b; filling each bucket
    // back to front then leaves it at the bucket's beginning, its rows
    // ascending.
    for (size_t b = 1; b < buckets; ++b) start_[b] += start_[b - 1];
    start_[buckets] = static_cast<uint32_t>(rows);
    ids_.resize(rows);
    for (size_t i = rows; i-- > 0;) {
      ids_[--start_[row_bucket[i]]] = static_cast<uint32_t>(i);
    }
  }

  /// Calls fn(row) for each row whose key hash shares a bucket with `hash`,
  /// in ascending row order.
  template <class Fn>
  void ForEachCandidate(uint64_t hash, Fn fn) const {
    const size_t b = Bucket(hash);
    for (uint32_t k = start_[b]; k < start_[b + 1]; ++k) fn(ids_[k]);
  }

  /// True when pred(row) holds for a row of `hash`'s bucket; stops at the
  /// first such row.
  template <class Pred>
  bool AnyCandidate(uint64_t hash, Pred pred) const {
    const size_t b = Bucket(hash);
    for (uint32_t k = start_[b]; k < start_[b + 1]; ++k) {
      if (pred(ids_[k])) return true;
    }
    return false;
  }

 private:
  size_t Bucket(uint64_t hash) const {
    if (bits_ == 0) return 0;
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                               (64 - bits_));
  }

  int bits_;
  std::vector<uint32_t> start_;  // bucket b is ids_[start_[b], start_[b+1])
  std::vector<uint32_t> ids_;
};

/// Column-major, dictionary-encoded snapshot of a relation. Immutable.
class ColumnarRelation {
 public:
  /// Encodes `cols` (one code vector per column, each `rows` long, rows in
  /// lexicographic code order and deduplicated) against `dict`, which holds
  /// at least every value the codes name. `rows` is explicit so 0-ary
  /// relations (which may hold the empty tuple) keep their row count.
  ColumnarRelation(size_t arity, size_t rows,
                   std::shared_ptr<const ValueDict> dict,
                   std::vector<std::vector<uint32_t>> cols);

  /// Builds the columnar form of `r` against a dictionary of its own values
  /// (canonicalizes `r` lazily). Prefer Relation::Columnar(), which caches
  /// the result on the relation. The cells are sorted by kind as plain keys
  /// (null ids, int64s, string bytes) and coded in one walk, which gives
  /// the dictionary and codes of ValueDict::Build and Find.
  static std::shared_ptr<const ColumnarRelation> FromRelation(
      const Relation& r);

  size_t arity() const { return arity_; }
  size_t rows() const { return rows_; }

  const ValueDict& dict() const { return *dict_; }
  const std::shared_ptr<const ValueDict>& dict_ptr() const { return dict_; }

  /// Codes of column `c`, one per row.
  const std::vector<uint32_t>& col(size_t c) const { return cols_[c]; }

  /// True when any cell is a marked null.
  bool HasNull() const;

  /// The decoded value of one cell.
  const Value& ValueAt(size_t row, size_t c) const {
    return dict_->values[cols_[c][row]];
  }

  /// The decoded rows, in canonical tuple order.
  std::vector<Tuple> DecodeRows() const;

 private:
  size_t arity_;
  size_t rows_;
  std::shared_ptr<const ValueDict> dict_;
  std::vector<std::vector<uint32_t>> cols_;
};

}  // namespace incdb

#endif  // INCDB_CORE_COLUMNAR_H_
