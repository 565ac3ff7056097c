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

Relation::Relation(const Relation& o) : arity_(o.arity_) {
  // Shared storage must be canonical so either side can read it lazily
  // without writing; canonicalize while `o` still owns it uniquely.
  o.EnsureCanonical();
  tuples_ = o.tuples_;
  index_ = o.index_;
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
  index_ = o.index_;
  columnar_ = o.columnar_;
  complete_.store(o.complete_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  return *this;
}

Relation::Relation(Relation&& o) noexcept
    : arity_(o.arity_),
      tuples_(std::move(o.tuples_)),
      dirty_(o.dirty_),
      index_(std::move(o.index_)),
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
  index_ = std::move(o.index_);
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
  // dirty_ implies uniquely owned storage (mutators clone before writing),
  // so sorting in place cannot be observed through another relation.
  std::sort(tuples_->begin(), tuples_->end());
  tuples_->erase(std::unique(tuples_->begin(), tuples_->end()),
                 tuples_->end());
  dirty_ = false;
}

void Relation::EnsureUniqueStorage() {
  if (tuples_ == nullptr) {
    tuples_ = std::make_shared<std::vector<Tuple>>();
  } else if (tuples_.use_count() > 1) {
    tuples_ = std::make_shared<std::vector<Tuple>>(*tuples_);
  }
}

size_t Relation::size() const { return tuples().size(); }

void Relation::Add(Tuple t) {
  INCDB_CHECK_MSG(t.arity() == arity_, "tuple arity mismatch");
  EnsureUniqueStorage();
  if (t.HasNull()) {
    complete_.store(0, std::memory_order_relaxed);
  }
  // A null-free tuple cannot invalidate a positive memo; leave it.
  tuples_->push_back(std::move(t));
  dirty_ = true;
  index_.reset();
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
  index_.reset();
  columnar_.reset();
}

const std::unordered_set<Tuple, TupleHash>& Relation::HashIndex() const {
  if (index_ == nullptr) {
    // Built from the raw vector: duplicates collapse in the set, so the
    // index does not require (or trigger) canonicalization.
    auto idx = std::make_shared<std::unordered_set<Tuple, TupleHash>>();
    if (tuples_ != nullptr) {
      idx->reserve(tuples_->size());
      for (const Tuple& t : *tuples_) idx->insert(t);
    }
    index_ = std::move(idx);
  }
  return *index_;
}

std::shared_ptr<const ColumnarRelation> Relation::Columnar() const {
  if (columnar_ == nullptr) {
    columnar_ = ColumnarRelation::FromRelation(*this);
  }
  return columnar_;
}

bool Relation::Contains(const Tuple& t) const {
  return HashIndex().count(t) > 0;
}

const std::vector<Tuple>& Relation::tuples() const {
  if (tuples_ == nullptr) return EmptyTuples();
  EnsureCanonical();
  return *tuples_;
}

bool Relation::IsComplete() const {
  int8_t memo = complete_.load(std::memory_order_relaxed);
  if (memo < 0) {
    // Computed over the raw vector — duplicates and order are irrelevant.
    memo = 1;
    if (tuples_ != nullptr) {
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
  for (const Tuple& t : tuples()) {
    for (const Value& v : t.values()) {
      if (v.is_null() && ++counts[v.null_id()] > 1) return false;
    }
  }
  return true;
}

std::set<NullId> Relation::Nulls() const {
  std::set<NullId> out;
  for (const Tuple& t : tuples()) {
    for (const Value& v : t.values()) {
      if (v.is_null()) out.insert(v.null_id());
    }
  }
  return out;
}

std::set<Value> Relation::Constants() const {
  std::set<Value> out;
  for (const Tuple& t : tuples()) {
    for (const Value& v : t.values()) {
      if (v.is_const()) out.insert(v);
    }
  }
  return out;
}

Relation Relation::CompletePart() const {
  if (IsComplete()) return *this;  // share storage
  Relation out(arity_);
  for (const Tuple& t : tuples()) {
    if (!t.HasNull()) out.Add(t);
  }
  return out;
}

bool Relation::operator==(const Relation& o) const {
  if (arity_ != o.arity_) return false;
  return tuples() == o.tuples();
}

bool Relation::IsSubsetOf(const Relation& o) const {
  if (arity_ != o.arity_) return false;
  const auto& a = tuples();
  const auto& b = o.tuples();
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

std::string Relation::ToString() const {
  std::string s = "{";
  bool first = true;
  for (const Tuple& t : tuples()) {
    if (!first) s += ", ";
    first = false;
    s += t.ToString();
  }
  s += "}";
  return s;
}

}  // namespace incdb
