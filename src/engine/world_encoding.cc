#include "engine/world_encoding.h"

#include <algorithm>
#include <utility>

namespace incdb {

WorldEnumOptions WithQueryConstants(const RAExprPtr& plan,
                                    WorldEnumOptions opts) {
  std::vector<Value> values;
  CollectSelectionConstants(plan, &values);
  WorldEncoding::CollectLiteralValues(plan, &values);
  for (Value& v : values) {
    if (!v.is_null()) opts.required_constants.push_back(std::move(v));
  }
  return opts;
}

void WorldEncoding::CollectLiteralValues(const RAExprPtr& e,
                                         std::vector<Value>* out) {
  if (e == nullptr) return;
  if (e->kind() == RAExpr::Kind::kConstRel) {
    for (const Tuple& t : e->literal().tuples()) {
      out->insert(out->end(), t.values().begin(), t.values().end());
    }
  }
  CollectLiteralValues(e->left(), out);
  CollectLiteralValues(e->right(), out);
}

Result<WorldEncoding> WorldEncoding::Make(const RAExprPtr& plan,
                                          const WorldSpace& space) {
  WorldEncoding enc;
  enc.nulls_ = space.nulls;
  // The domain is sorted and holds constants only, so without literals it
  // is the dictionary as it stands.
  std::vector<Value> literal_values;
  CollectLiteralValues(plan, &literal_values);
  if (literal_values.empty()) {
    enc.dict_.values = space.domain;
  } else {
    literal_values.insert(literal_values.end(), space.domain.begin(),
                          space.domain.end());
    enc.dict_ = *ValueDict::Build(std::move(literal_values));
  }
  INCDB_RETURN_IF_ERROR(enc.Finish(space.domain));
  return enc;
}

Result<WorldEncoding> WorldEncoding::FromValues(
    std::vector<Value> values, const std::vector<NullId>& nulls,
    const std::vector<Value>& domain) {
  WorldEncoding enc;
  enc.nulls_ = nulls;
  values.insert(values.end(), domain.begin(), domain.end());
  enc.dict_ = *ValueDict::Build(std::move(values));
  INCDB_RETURN_IF_ERROR(enc.Finish(domain));
  return enc;
}

Status WorldEncoding::Finish(const std::vector<Value>& domain) {
  if (dict_.size() >= kNullSlot || nulls_.size() >= kNullSlot) {
    return Status::ResourceExhausted(
        "the query dictionary or the null count exceeds 2^31");
  }
  domain_codes_.reserve(domain.size());
  in_domain_.assign(dict_.size(), 0);
  for (const Value& v : domain) {
    const uint32_t code = dict_.Find(v);
    domain_codes_.push_back(code);
    in_domain_[code] = 1;
  }
  return Status::OK();
}

uint32_t WorldEncoding::SlotOf(NullId id) const {
  return static_cast<uint32_t>(
      std::lower_bound(nulls_.begin(), nulls_.end(), id) - nulls_.begin());
}

uint32_t WorldEncoding::EncodeBase(const Value& v) const {
  return v.is_null() ? kNullSlot | SlotOf(v.null_id()) : dict_.Find(v);
}

std::vector<uint32_t> WorldEncoding::EncodeBaseRows(const Relation& r) const {
  std::vector<uint32_t> cells;
  cells.reserve(r.size() * r.arity());
  for (const Tuple& t : r.tuples()) {
    for (const Value& v : t.values()) cells.push_back(EncodeBase(v));
  }
  return cells;
}

std::vector<uint32_t> WorldEncoding::EncodeLiteralRows(
    const Relation& r) const {
  std::vector<uint32_t> cells;
  cells.reserve(r.size() * r.arity());
  for (const Tuple& t : r.tuples()) {
    for (const Value& v : t.values()) cells.push_back(dict_.Find(v));
  }
  return cells;
}

Value WorldEncoding::Decode(uint32_t cell) const {
  if (cell & kNullSlot) return Value::Null(nulls_[cell & ~kNullSlot]);
  return dict_.values[cell];
}

}  // namespace incdb
