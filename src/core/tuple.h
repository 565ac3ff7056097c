// Tuple: an ordered sequence of Values (one row of a relation).

#ifndef INCDB_CORE_TUPLE_H_
#define INCDB_CORE_TUPLE_H_

#include <compare>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/value.h"

namespace incdb {

/// A database tuple. Comparison is lexicographic; hashing is order-sensitive.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t arity() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& operator[](size_t i) const { return values_[i]; }
  Value& operator[](size_t i) { return values_[i]; }

  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// True if any component is a marked null.
  bool HasNull() const;

  /// The tuple restricted to the given column indices, in order.
  Tuple Project(const std::vector<size_t>& columns) const;

  /// Concatenation (this ++ other).
  Tuple Concat(const Tuple& other) const;

  bool operator==(const Tuple& o) const = default;
  std::strong_ordering operator<=>(const Tuple& o) const = default;

  /// "(1, 'a', _2)"
  std::string ToString() const;
  /// Appends ToString()'s text.
  void AppendTo(std::string* out) const;

  size_t Hash() const;

 private:
  std::vector<Value> values_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace incdb

#endif  // INCDB_CORE_TUPLE_H_
