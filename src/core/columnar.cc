#include "core/columnar.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
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

std::shared_ptr<const ValueDict> MergeDictList(
    const std::vector<std::shared_ptr<const ValueDict>>& sources,
    std::vector<std::vector<uint32_t>>* into) {
  std::shared_ptr<const ValueDict> dict = sources[0];
  into->assign(sources.size(), {});
  for (size_t i = 1; i < sources.size(); ++i) {
    DictMerge m = MergeDicts(dict, sources[i]);
    if (m.dict == dict) continue;  // sources[i] is the merge so far
    for (size_t k = 0; k < i; ++k) {
      std::vector<uint32_t>& t = (*into)[k];
      if (t.empty()) {
        t = m.from_a;
      } else {
        for (uint32_t& code : t) code = m.from_a[code];
      }
    }
    (*into)[i] = std::move(m.from_b);
    dict = std::move(m.dict);
  }
  return dict;
}

namespace {

// True when every row is >= its predecessor (lexicographically by code).
bool RowsAscend(size_t arity, const std::vector<std::vector<uint32_t>>& cols,
                size_t rows) {
  for (size_t i = 1; i < rows; ++i) {
    for (size_t c = 0; c < arity; ++c) {
      const uint32_t prev = cols[c][i - 1];
      const uint32_t cur = cols[c][i];
      if (prev < cur) break;
      if (prev > cur) return false;
    }
  }
  return true;
}

// Drops the rows equal to their predecessor from rows that already ascend.
void DedupSortedRows(size_t arity, std::vector<std::vector<uint32_t>>* cols,
                     size_t* rows) {
  size_t kept = 1;
  for (size_t i = 1; i < *rows; ++i) {
    bool eq = true;
    for (size_t c = 0; c < arity && eq; ++c) {
      eq = (*cols)[c][i] == (*cols)[c][kept - 1];
    }
    if (eq) continue;
    if (kept != i) {
      for (size_t c = 0; c < arity; ++c) (*cols)[c][kept] = (*cols)[c][i];
    }
    ++kept;
  }
  for (size_t c = 0; c < arity; ++c) (*cols)[c].resize(kept);
  *rows = kept;
}

}  // namespace

std::vector<uint32_t> SortedRowOrder(
    const std::vector<const std::vector<uint32_t>*>& cols, size_t rows,
    size_t code_bound) {
  const size_t n = rows;
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  if (n <= 1 || code_bound <= 1) return perm;
  const int bits = static_cast<int>(std::bit_width(code_bound - 1));
  // key[i] is the code of row perm[i] in the column being sorted; both move
  // together, so the byte passes read memory in order.
  std::vector<uint32_t> key(n);
  std::vector<uint32_t> perm_next(n);
  std::vector<uint32_t> key_next(n);
  for (size_t c = cols.size(); c-- > 0;) {
    const std::vector<uint32_t>& col = *cols[c];
    for (size_t i = 0; i < n; ++i) key[i] = col[perm[i]];
    for (int shift = 0; shift < bits; shift += 8) {
      std::array<size_t, 257> start{};
      for (size_t i = 0; i < n; ++i) ++start[((key[i] >> shift) & 0xff) + 1];
      if (start[((key[0] >> shift) & 0xff) + 1] == n) continue;
      for (size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
      for (size_t i = 0; i < n; ++i) {
        const size_t dst = start[(key[i] >> shift) & 0xff]++;
        perm_next[dst] = perm[i];
        key_next[dst] = key[i];
      }
      perm.swap(perm_next);
      key.swap(key_next);
    }
  }
  return perm;
}

void CompactRows(size_t arity, size_t code_bound,
                 std::vector<std::vector<uint32_t>>* cols, size_t* rows) {
  const size_t n = *rows;
  if (n <= 1) return;
  if (arity == 0) {  // all empty rows are equal
    *rows = 1;
    return;
  }
  if (RowsAscend(arity, *cols, n)) {
    DedupSortedRows(arity, cols, rows);
    return;
  }
  std::vector<const std::vector<uint32_t>*> by(arity);
  for (size_t c = 0; c < arity; ++c) by[c] = &(*cols)[c];
  const std::vector<uint32_t> perm = SortedRowOrder(by, n, code_bound);
  std::vector<uint32_t> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!kept.empty()) {
      bool eq = true;
      for (size_t c = 0; c < arity && eq; ++c) {
        eq = (*cols)[c][perm[i]] == (*cols)[c][kept.back()];
      }
      if (eq) continue;
    }
    kept.push_back(perm[i]);
  }
  std::vector<std::vector<uint32_t>> out(arity);
  for (size_t c = 0; c < arity; ++c) {
    out[c].reserve(kept.size());
    for (uint32_t id : kept) out[c].push_back((*cols)[c][id]);
  }
  *cols = std::move(out);
  *rows = kept.size();
}

std::shared_ptr<const ValueDict> CompactDict(
    const ValueDict& dict, const std::vector<Value>& extra,
    std::vector<std::vector<uint32_t>>* cols) {
  const size_t codes = dict.size() + extra.size();
  size_t cells = 0;
  for (const std::vector<uint32_t>& col : *cols) cells += col.size();
  auto value_of = [&](uint32_t code) -> const Value& {
    return code < dict.size() ? dict.values[code] : extra[code - dict.size()];
  };
  // The used codes, ascending: those of `dict` in value order, then extras.
  // rank[code] is the code's position in `used`, when marking.
  std::vector<uint32_t> used;
  std::vector<uint32_t> rank;
  const bool marking = cells >= codes / 8;
  if (marking) {
    rank.assign(codes, 0);
    for (const std::vector<uint32_t>& col : *cols) {
      for (const uint32_t code : col) rank[code] = 1;
    }
    for (uint32_t code = 0; code < codes; ++code) {
      if (rank[code] == 0) continue;
      rank[code] = static_cast<uint32_t>(used.size());
      used.push_back(code);
    }
  } else {
    for (const std::vector<uint32_t>& col : *cols) {
      used.insert(used.end(), col.begin(), col.end());
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
  }
  // Used extras go between the dictionary's values in value order:
  // at_rank[i] is then the new code of used[i] (empty: i itself).
  std::vector<uint32_t> order;
  std::vector<uint32_t> at_rank;
  const size_t base = std::lower_bound(used.begin(), used.end(), dict.size()) -
                      used.begin();
  if (base < used.size()) {
    std::vector<uint32_t> positions(used.size());
    for (size_t i = 0; i < positions.size(); ++i) {
      positions[i] = static_cast<uint32_t>(i);
    }
    auto by_value = [&](uint32_t a, uint32_t b) {
      return value_of(used[a]) < value_of(used[b]);
    };
    std::sort(positions.begin() + base, positions.end(), by_value);
    std::inplace_merge(positions.begin(), positions.begin() + base,
                       positions.end(), by_value);
    at_rank.resize(used.size());
    for (size_t i = 0; i < positions.size(); ++i) {
      at_rank[positions[i]] = static_cast<uint32_t>(i);
      order.push_back(used[positions[i]]);
    }
  }
  const std::vector<uint32_t>& in_order = at_rank.empty() ? used : order;
  auto out = std::make_shared<ValueDict>();
  out->values.reserve(in_order.size());
  for (const uint32_t code : in_order) out->values.push_back(value_of(code));
  while (out->null_end < out->values.size() &&
         out->values[out->null_end].is_null()) {
    ++out->null_end;
  }
  if (marking) {
    if (!at_rank.empty()) {
      for (size_t i = 0; i < used.size(); ++i) rank[used[i]] = at_rank[i];
    }
    for (std::vector<uint32_t>& col : *cols) {
      for (uint32_t& code : col) code = rank[code];
    }
    return out;
  }
  for (std::vector<uint32_t>& col : *cols) {
    for (uint32_t& code : col) {
      const auto pos = static_cast<uint32_t>(
          std::lower_bound(used.begin(), used.end(), code) - used.begin());
      code = at_rank.empty() ? pos : at_rank[pos];
    }
  }
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
  // Each cell as (key, cell number), cell number = row * arity + column,
  // split by kind: the kinds sort in Value order (nulls < ints < strings),
  // and within a kind the keys sort like the values.
  std::vector<std::pair<NullId, size_t>> nulls;
  std::vector<std::pair<int64_t, size_t>> ints;
  std::vector<std::pair<const std::string*, size_t>> strs;
  for (size_t row = 0; row < rows.size(); ++row) {
    for (size_t c = 0; c < arity; ++c) {
      const Value& v = rows[row][c];
      const size_t cell = row * arity + c;
      switch (v.kind()) {
        case Value::Kind::kNull:
          nulls.emplace_back(v.null_id(), cell);
          break;
        case Value::Kind::kInt:
          ints.emplace_back(v.as_int(), cell);
          break;
        case Value::Kind::kString:
          strs.emplace_back(&v.as_str(), cell);
          break;
      }
    }
  }
  std::sort(nulls.begin(), nulls.end());
  std::sort(ints.begin(), ints.end());
  std::sort(strs.begin(), strs.end(), [](const auto& a, const auto& b) {
    return a.first->compare(*b.first) < 0;
  });

  auto dict = std::make_shared<ValueDict>();
  std::vector<std::vector<uint32_t>> cols(arity,
                                          std::vector<uint32_t>(rows.size()));
  // Walks one kind's sorted cells: a key unlike its predecessor's opens
  // the next code, and every cell takes the current code.
  auto code_cells = [&](const auto& cells, auto same, auto value_of) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i == 0 || !same(cells[i - 1].first, cells[i].first)) {
        dict->values.push_back(value_of(cells[i].first));
      }
      const size_t cell = cells[i].second;
      cols[cell % arity][cell / arity] =
          static_cast<uint32_t>(dict->values.size() - 1);
    }
  };
  auto equal = [](const auto& a, const auto& b) { return a == b; };
  code_cells(nulls, equal, [](NullId id) { return Value::Null(id); });
  dict->null_end = static_cast<uint32_t>(dict->values.size());
  code_cells(ints, equal, [](int64_t v) { return Value::Int(v); });
  code_cells(
      strs, [](const std::string* a, const std::string* b) { return *a == *b; },
      [](const std::string* s) { return Value::Str(*s); });
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
