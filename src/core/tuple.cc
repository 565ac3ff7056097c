#include "core/tuple.h"

#include "util/status.h"

namespace incdb {

bool Tuple::HasNull() const {
  for (const Value& v : values_) {
    if (v.is_null()) return true;
  }
  return false;
}

Tuple Tuple::Project(const std::vector<size_t>& columns) const {
  std::vector<Value> out;
  out.reserve(columns.size());
  for (size_t c : columns) {
    INCDB_CHECK_MSG(c < values_.size(), "projection column out of range");
    out.push_back(values_[c]);
  }
  return Tuple(std::move(out));
}

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> out = values_;
  out.insert(out.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(out));
}

std::string Tuple::ToString() const {
  std::string s;
  AppendTo(&s);
  return s;
}

void Tuple::AppendTo(std::string* out) const {
  out->push_back('(');
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out->append(", ");
    values_[i].AppendTo(out);
  }
  out->push_back(')');
}

size_t Tuple::Hash() const {
  size_t h = 0x345678;
  for (const Value& v : values_) {
    h = h * 1000003 ^ v.Hash();
  }
  return h ^ values_.size();
}

}  // namespace incdb
