#include "core/columnar.h"

#include <algorithm>
#include <utility>

#include "core/relation.h"
#include "util/status.h"

namespace incdb {

uint32_t ValueDict::Find(const Value& v) const {
  auto it = std::lower_bound(values.begin(), values.end(), v);
  if (it == values.end() || !(*it == v)) return kNotFound;
  return static_cast<uint32_t>(it - values.begin());
}

uint32_t ValueDict::LowerBound(const Value& v) const {
  return static_cast<uint32_t>(
      std::lower_bound(values.begin(), values.end(), v) - values.begin());
}

uint32_t ValueDict::UpperBound(const Value& v) const {
  return static_cast<uint32_t>(
      std::upper_bound(values.begin(), values.end(), v) - values.begin());
}

std::shared_ptr<const ValueDict> ValueDict::Build(std::vector<Value> cells) {
  auto dict = std::make_shared<ValueDict>();
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  dict->values = std::move(cells);
  // Nulls sort first; the first constant ends the null prefix.
  uint32_t null_end = 0;
  while (null_end < dict->values.size() &&
         dict->values[null_end].is_null()) {
    ++null_end;
  }
  dict->null_end = null_end;
  return dict;
}

DictMerge MergeDicts(const std::shared_ptr<const ValueDict>& a,
                     const std::shared_ptr<const ValueDict>& b) {
  DictMerge out;
  if (a == b) {
    out.dict = a;
    return out;
  }
  auto merged = std::make_shared<ValueDict>();
  merged->values.reserve(a->size() + b->size());
  out.from_a.resize(a->size());
  out.from_b.resize(b->size());
  size_t i = 0;
  size_t j = 0;
  while (i < a->size() || j < b->size()) {
    const uint32_t code = static_cast<uint32_t>(merged->values.size());
    bool take_a = false;
    bool take_b = false;
    if (i < a->size() && j < b->size()) {
      const auto cmp = a->values[i] <=> b->values[j];
      take_a = cmp <= 0;
      take_b = cmp >= 0;
    } else {
      take_a = i < a->size();
      take_b = !take_a;
    }
    if (take_a) {
      merged->values.push_back(a->values[i]);
      out.from_a[i++] = code;
    }
    if (take_b) {
      if (!take_a) {
        merged->values.push_back(b->values[j]);
      }
      out.from_b[j++] = code;
    }
  }
  uint32_t null_end = 0;
  while (null_end < merged->values.size() &&
         merged->values[null_end].is_null()) {
    ++null_end;
  }
  merged->null_end = null_end;
  out.dict = std::move(merged);
  return out;
}

ColumnarRelation::ColumnarRelation(size_t arity, size_t rows,
                                   std::shared_ptr<const ValueDict> dict,
                                   std::vector<std::vector<uint32_t>> cols)
    : arity_(arity),
      rows_(rows),
      dict_(std::move(dict)),
      cols_(std::move(cols)) {
  INCDB_CHECK_MSG(cols_.size() == arity_, "column count != arity");
  for (const std::vector<uint32_t>& col : cols_) {
    INCDB_CHECK_MSG(col.size() == rows_, "ragged column");
  }
}

std::shared_ptr<const ColumnarRelation> ColumnarRelation::FromRelation(
    const Relation& r) {
  const std::vector<Tuple>& rows = r.tuples();
  const size_t arity = r.arity();
  std::vector<Value> cells;
  cells.reserve(rows.size() * arity);
  for (const Tuple& t : rows) {
    for (const Value& v : t.values()) cells.push_back(v);
  }
  std::shared_ptr<const ValueDict> dict = ValueDict::Build(std::move(cells));
  std::vector<std::vector<uint32_t>> cols(arity);
  for (size_t c = 0; c < arity; ++c) {
    cols[c].reserve(rows.size());
    for (const Tuple& t : rows) cols[c].push_back(dict->Find(t[c]));
  }
  return std::make_shared<const ColumnarRelation>(
      arity, rows.size(), std::move(dict), std::move(cols));
}

bool ColumnarRelation::HasNull() const {
  const uint32_t null_end = dict_->null_end;
  if (null_end == 0) return false;
  for (const std::vector<uint32_t>& col : cols_) {
    for (const uint32_t code : col) {
      if (code < null_end) return true;
    }
  }
  return false;
}

std::vector<Tuple> ColumnarRelation::DecodeRows() const {
  std::vector<Tuple> out;
  out.reserve(rows_);
  for (size_t row = 0; row < rows_; ++row) {
    std::vector<Value> vals;
    vals.reserve(arity_);
    for (size_t c = 0; c < arity_; ++c) {
      vals.push_back(dict_->values[cols_[c][row]]);
    }
    out.emplace_back(std::move(vals));
  }
  return out;
}

}  // namespace incdb
