// Columnar (dictionary-encoded) storage for relations.
//
// A ColumnarRelation is the column-major twin of a canonical Relation: every
// distinct value of the relation lives once in a sorted dictionary, and each
// column stores one 32-bit dictionary code per row. Because the dictionary
// is sorted by the total Value order, code order *is* value order within one
// relation — equality and order comparisons over a column become integer
// comparisons over a dense vector, which is what the batch-vectorized
// kernels in engine/vectorized.h iterate over. Rows follow the canonical
// tuple order of the source relation, so code rows are lexicographically
// sorted and deduplicated, and set operations run as sorted-run merges.
//
// Marked nulls get dedicated side structures per column:
//   * a null bitmap (one bit per row) answering "is this cell a null?"
//     without touching the dictionary, and
//   * a null-id column (dense NullId per row, 0 on constant cells),
//     materialized only for columns that actually contain nulls, so
//     valuation-style per-null processing never decodes Values.
// Nulls sort before all constants, so `code < dict().null_end` is an
// equivalent null test used inside comparison loops.
//
// Relation caches its ColumnarRelation exactly like HashIndex(): built on
// first use, shared structurally by copies (copy-on-write), invalidated by
// mutation. ColumnarRelation itself is immutable once built and therefore
// safe to share across threads.

#ifndef INCDB_CORE_COLUMNAR_H_
#define INCDB_CORE_COLUMNAR_H_

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
/// `b` are the same object the translations are identities.
DictMerge MergeDicts(const std::shared_ptr<const ValueDict>& a,
                     const std::shared_ptr<const ValueDict>& b);

/// Column-major, dictionary-encoded snapshot of a relation. Immutable.
class ColumnarRelation {
 public:
  /// Encodes `cols` (one code vector per column, each `rows` long, rows in
  /// lexicographic code order and deduplicated) against `dict`. `rows` is
  /// explicit so 0-ary relations (which may hold the empty tuple) keep
  /// their row count. Null bitmaps and null-id columns are derived here.
  ColumnarRelation(size_t arity, size_t rows,
                   std::shared_ptr<const ValueDict> dict,
                   std::vector<std::vector<uint32_t>> cols);

  /// Builds the columnar form of `r` (canonicalizes `r` lazily). Prefer
  /// Relation::Columnar(), which caches the result on the relation.
  static std::shared_ptr<const ColumnarRelation> FromRelation(
      const Relation& r);

  /// Decodes back to a row-oriented Relation; round-trips bit-identically
  /// (rows are already canonical).
  Relation ToRelation() const;

  size_t arity() const { return arity_; }
  size_t rows() const { return rows_; }

  const ValueDict& dict() const { return *dict_; }
  const std::shared_ptr<const ValueDict>& dict_ptr() const { return dict_; }

  /// Codes of column `c`, one per row.
  const std::vector<uint32_t>& col(size_t c) const { return cols_[c]; }

  /// Null bitmap of column `c`: bit `row % 64` of word `row / 64` is set
  /// iff the cell is a marked null. ceil(rows/64) words.
  const std::vector<uint64_t>& null_bitmap(size_t c) const {
    return null_bits_[c];
  }

  /// True when column `c` contains at least one null.
  bool ColumnHasNulls(size_t c) const { return !null_ids_[c].empty(); }

  /// Null-id column of `c`: the NullId per row (0 on constant cells).
  /// Empty when the column has no nulls (see ColumnHasNulls).
  const std::vector<NullId>& null_ids(size_t c) const { return null_ids_[c]; }

  /// True when any cell of `row` is a marked null (bitmap lookup).
  bool RowHasNull(size_t row) const;

  /// The decoded value of one cell.
  const Value& ValueAt(size_t row, size_t c) const {
    return dict_->values[cols_[c][row]];
  }

 private:
  size_t arity_;
  size_t rows_;
  std::shared_ptr<const ValueDict> dict_;
  std::vector<std::vector<uint32_t>> cols_;
  std::vector<std::vector<uint64_t>> null_bits_;
  std::vector<std::vector<NullId>> null_ids_;
};

}  // namespace incdb

#endif  // INCDB_CORE_COLUMNAR_H_
