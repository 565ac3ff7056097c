#include "core/relation.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/columnar.h"
#include "util/status.h"

namespace incdb {

Relation::Relation(size_t arity, std::vector<Tuple> tuples)
    : arity_(arity),
      tuples_(std::make_shared<std::vector<Tuple>>(std::move(tuples))),
      dirty_(true) {
  for (const Tuple& t : *tuples_) {
    INCDB_CHECK_MSG(t.arity() == arity_, "tuple arity mismatch");
  }
}

Relation::Relation(std::shared_ptr<const ColumnarRelation> columns)
    : arity_(columns->arity()), columnar_(std::move(columns)) {}

Relation::Relation(const Relation& o) : arity_(o.arity_) {
  // Shared storage must be canonical so either side can read it lazily
  // without writing; canonicalize while `o` still owns it uniquely.
  o.EnsureCanonical();
  tuples_ = o.tuples_;
  columnar_ = o.columnar_;
  complete_.store(o.complete_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

Relation& Relation::operator=(const Relation& o) {
  if (this == &o) return *this;
  o.EnsureCanonical();
  arity_ = o.arity_;
  tuples_ = o.tuples_;
  dirty_ = false;
  columnar_ = o.columnar_;
  complete_.store(o.complete_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  return *this;
}

Relation::Relation(Relation&& o) noexcept
    : arity_(o.arity_),
      tuples_(std::move(o.tuples_)),
      dirty_(o.dirty_),
      columnar_(std::move(o.columnar_)) {
  complete_.store(o.complete_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  o.dirty_ = false;
  o.complete_.store(-1, std::memory_order_relaxed);
}

Relation& Relation::operator=(Relation&& o) noexcept {
  if (this == &o) return *this;
  arity_ = o.arity_;
  tuples_ = std::move(o.tuples_);
  dirty_ = o.dirty_;
  columnar_ = std::move(o.columnar_);
  complete_.store(o.complete_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  o.dirty_ = false;
  o.complete_.store(-1, std::memory_order_relaxed);
  return *this;
}

const std::vector<Tuple>& Relation::EmptyTuples() {
  static const std::vector<Tuple> empty;
  return empty;
}

void Relation::EnsureCanonical() const {
  if (!dirty_) return;
  // Many producers (the columnar engine, SQL blocks, the dump loader) emit
  // rows already in canonical order; one pass recognises them.
  const bool canonical =
      std::adjacent_find(tuples_->begin(), tuples_->end(),
                         [](const Tuple& a, const Tuple& b) {
                           return !(a < b);
                         }) == tuples_->end();
  if (!canonical) {
    // dirty_ implies uniquely owned storage (mutators clone before
    // writing), so sorting in place cannot be observed through another
    // relation.
    std::sort(tuples_->begin(), tuples_->end());
    tuples_->erase(std::unique(tuples_->begin(), tuples_->end()),
                   tuples_->end());
  }
  dirty_ = false;
}

void Relation::EnsureUniqueStorage() {
  if (tuples_ == nullptr) {
    tuples_ = std::make_shared<std::vector<Tuple>>(
        columnar_ != nullptr ? columnar_->DecodeRows() : std::vector<Tuple>());
  } else if (tuples_.use_count() > 1) {
    tuples_ = std::make_shared<std::vector<Tuple>>(*tuples_);
  }
}

const Value& Relation::Cell(size_t row, size_t c) const {
  return HoldsColumns() ? columnar_->ValueAt(row, c) : (*tuples_)[row][c];
}

template <class Fn>
void Relation::ForEachCell(Fn fn) const {
  if (HoldsColumns()) {
    const std::vector<Value>& values = columnar_->dict().values;
    for (size_t c = 0; c < arity_; ++c) {
      for (const uint32_t code : columnar_->col(c)) fn(values[code]);
    }
    return;
  }
  for (const Tuple& t : tuples()) {
    for (const Value& v : t.values()) fn(v);
  }
}

size_t Relation::size() const {
  if (HoldsColumns()) return columnar_->rows();
  return tuples().size();
}

void Relation::Add(Tuple t) {
  INCDB_CHECK_MSG(t.arity() == arity_, "tuple arity mismatch");
  EnsureUniqueStorage();
  if (t.HasNull()) {
    complete_.store(0, std::memory_order_relaxed);
  }
  // A null-free tuple cannot invalidate a positive memo; leave it.
  tuples_->push_back(std::move(t));
  dirty_ = true;
  columnar_.reset();
}

void Relation::AddAll(const Relation& other) {
  INCDB_CHECK_MSG(other.arity() == arity_, "relation arity mismatch");
  const std::vector<Tuple>& src = other.tuples();  // canonicalizes other
  EnsureUniqueStorage();
  if (!other.IsComplete()) {
    complete_.store(0, std::memory_order_relaxed);
  }
  tuples_->reserve(tuples_->size() + src.size());
  for (const Tuple& t : src) tuples_->push_back(t);
  dirty_ = true;
  columnar_.reset();
}

std::shared_ptr<const ColumnarRelation> Relation::Columnar() const {
  if (columnar_ == nullptr) {
    columnar_ = ColumnarRelation::FromRelation(*this);
  }
  return columnar_;
}

void Relation::AdoptColumnar(std::shared_ptr<const ColumnarRelation> form) {
  INCDB_CHECK_MSG(form->arity() == arity_ && form->rows() == size(),
                  "adopted columnar form does not match the relation");
  columnar_ = std::move(form);
}

std::strong_ordering Relation::CompareRow(size_t row, const Tuple& t) const {
  for (size_t c = 0; c < arity_; ++c) {
    const auto cmp = Cell(row, c) <=> t[c];
    if (cmp != 0) return cmp;
  }
  return std::strong_ordering::equal;
}

bool Relation::Contains(const Tuple& t) const {
  if (t.arity() != arity_) return false;
  size_t lo = 0;
  size_t hi = size();  // canonicalizes a tuple body
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const auto cmp = CompareRow(mid, t);
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

const std::vector<Tuple>& Relation::tuples() const {
  if (HoldsColumns()) {
    // An empty body decodes to nothing: no write, so a shared empty
    // relation (Database's per-arity empties) stays read-only.
    if (columnar_->rows() == 0) return EmptyTuples();
    tuples_ = std::make_shared<std::vector<Tuple>>(columnar_->DecodeRows());
    return *tuples_;
  }
  if (tuples_ == nullptr) return EmptyTuples();
  EnsureCanonical();
  return *tuples_;
}

bool Relation::IsComplete() const {
  int8_t memo = complete_.load(std::memory_order_relaxed);
  if (memo < 0) {
    // Computed over the raw vector — duplicates and order are irrelevant.
    memo = 1;
    if (HoldsColumns()) {
      memo = columnar_->HasNull() ? 0 : 1;
    } else if (tuples_ != nullptr) {
      for (const Tuple& t : *tuples_) {
        if (t.HasNull()) {
          memo = 0;
          break;
        }
      }
    }
    complete_.store(memo, std::memory_order_relaxed);
  }
  return memo == 1;
}

bool Relation::IsCoddTable() const {
  std::map<NullId, int> counts;
  bool codd = true;
  ForEachCell([&](const Value& v) {
    if (v.is_null() && ++counts[v.null_id()] > 1) codd = false;
  });
  return codd;
}

std::set<NullId> Relation::Nulls() const {
  std::set<NullId> out;
  ForEachCell([&](const Value& v) {
    if (v.is_null()) out.insert(v.null_id());
  });
  return out;
}

std::set<Value> Relation::Constants() const {
  std::set<Value> out;
  ForEachCell([&](const Value& v) {
    if (v.is_const()) out.insert(v);
  });
  return out;
}

Relation Relation::CompletePart() const {
  if (IsComplete()) return *this;  // share storage
  if (HoldsColumns()) {
    // Keep the rows without a null code; they stay canonical, and the
    // dictionary may keep the nulls no row uses any more.
    const ColumnarRelation& in = *columnar_;
    const uint32_t null_end = in.dict().null_end;
    std::vector<uint8_t> keep(in.rows(), 1);
    for (size_t c = 0; c < arity_; ++c) {
      const std::vector<uint32_t>& col = in.col(c);
      for (size_t row = 0; row < in.rows(); ++row) {
        if (col[row] < null_end) keep[row] = 0;
      }
    }
    std::vector<std::vector<uint32_t>> cols(arity_);
    size_t rows = 0;
    for (size_t row = 0; row < in.rows(); ++row) {
      if (!keep[row]) continue;
      for (size_t c = 0; c < arity_; ++c) cols[c].push_back(in.col(c)[row]);
      ++rows;
    }
    return Relation(std::make_shared<const ColumnarRelation>(
        arity_, rows, in.dict_ptr(), std::move(cols)));
  }
  Relation out(arity_);
  for (const Tuple& t : tuples()) {
    if (!t.HasNull()) out.Add(t);
  }
  return out;
}

bool Relation::operator==(const Relation& o) const {
  if (arity_ != o.arity_) return false;
  if (!HoldsColumns() && !o.HoldsColumns()) return tuples() == o.tuples();
  const size_t rows = size();  // canonicalizes a tuple body
  if (rows != o.size()) return false;
  if (HoldsColumns() && o.HoldsColumns() &&
      columnar_->dict_ptr() == o.columnar_->dict_ptr()) {
    for (size_t c = 0; c < arity_; ++c) {
      if (columnar_->col(c) != o.columnar_->col(c)) return false;
    }
    return true;
  }
  for (size_t row = 0; row < rows; ++row) {
    for (size_t c = 0; c < arity_; ++c) {
      if (!(Cell(row, c) == o.Cell(row, c))) return false;
    }
  }
  return true;
}

bool Relation::IsSubsetOf(const Relation& o) const {
  if (arity_ != o.arity_) return false;
  const size_t n = size();  // canonicalizes a tuple body
  const size_t m = o.size();
  auto compare = [&](size_t i, size_t j) {
    for (size_t c = 0; c < arity_; ++c) {
      const auto cmp = Cell(i, c) <=> o.Cell(j, c);
      if (cmp != 0) return cmp;
    }
    return std::strong_ordering::equal;
  };
  // Both row lists are sorted: one merge walk.
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    while (j < m && compare(i, j) > 0) ++j;
    if (j == m || compare(i, j) != 0) return false;
    ++j;
  }
  return true;
}

std::string Relation::ToString() const {
  std::string s = "{";
  const size_t rows = size();  // canonicalizes a tuple body
  for (size_t row = 0; row < rows; ++row) {
    if (row > 0) s += ", ";
    s += '(';
    for (size_t c = 0; c < arity_; ++c) {
      if (c > 0) s += ", ";
      Cell(row, c).AppendTo(&s);
    }
    s += ')';
  }
  s += "}";
  return s;
}

}  // namespace incdb
