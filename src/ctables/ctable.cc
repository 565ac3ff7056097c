#include "ctables/ctable.h"

#include <mutex>

namespace incdb {

void CTable::AddRow(Tuple t, ConditionPtr c) {
  INCDB_CHECK_MSG(t.arity() == arity_, "c-table row arity mismatch");
  rows_.push_back(CTableRow{std::move(t), std::move(c)});
}

CTable CTable::FromRelation(const Relation& r) {
  CTable out(r.arity());
  for (const Tuple& t : r.tuples()) out.AddRow(t, Condition::True());
  return out;
}

size_t CTable::TotalConditionSize() const {
  size_t n = global_->Size();
  for (const CTableRow& row : rows_) n += row.condition->Size();
  return n;
}

std::set<NullId> CTable::Nulls() const {
  std::set<NullId> out;
  for (const CTableRow& row : rows_) {
    for (const Value& v : row.tuple.values()) {
      if (v.is_null()) out.insert(v.null_id());
    }
    row.condition->CollectNulls(&out);
  }
  global_->CollectNulls(&out);
  return out;
}

std::set<Value> CTable::Constants() const {
  std::set<Value> out;
  for (const CTableRow& row : rows_) {
    for (const Value& v : row.tuple.values()) {
      if (v.is_const()) out.insert(v);
    }
    row.condition->CollectConstants(&out);
  }
  global_->CollectConstants(&out);
  return out;
}

Relation CTable::ApplyValuation(const Valuation& v, bool* global_ok) const {
  const bool ok = global_->EvalUnder(v);
  if (global_ok != nullptr) *global_ok = ok;
  Relation out(arity_);
  if (!ok) return out;
  for (const CTableRow& row : rows_) {
    if (row.condition->EvalUnder(v)) out.Add(v.Apply(row.tuple));
  }
  return out;
}

CTable CTable::Simplified() const {
  CTable out(arity_);
  out.SetGlobalCondition(global_);
  for (const CTableRow& row : rows_) {
    if (IsSatisfiable(Condition::And(global_, row.condition))) {
      out.AddRow(row.tuple, row.condition);
    }
  }
  return out;
}

std::string CTable::ToString() const {
  std::string s = "{\n";
  for (const CTableRow& row : rows_) {
    s += "  " + row.tuple.ToString() + " if " + row.condition->ToString() +
         "\n";
  }
  s += "} global: " + global_->ToString();
  return s;
}

CTable* CDatabase::MutableTable(const std::string& name, size_t arity_hint) {
  auto it = tables_.find(name);
  if (it != tables_.end()) return &it->second;
  size_t arity = arity_hint;
  if (schema_.HasRelation(name)) {
    arity = *schema_.Arity(name);
  } else {
    (void)schema_.AddRelation(name, arity);
  }
  return &tables_.emplace(name, CTable(arity)).first->second;
}

const CTable& CDatabase::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second;
  // Shared immutable empties, one per arity ever requested. Mutex-guarded:
  // concurrent readers (service sessions) may race to create an arity's
  // entry. Map node stability keeps returned references valid across later
  // insertions.
  static std::mutex* mu = new std::mutex;
  static std::map<size_t, CTable>* empties = new std::map<size_t, CTable>;
  size_t arity = 0;
  if (schema_.HasRelation(name)) arity = *schema_.Arity(name);
  std::lock_guard<std::mutex> lock(*mu);
  auto eit = empties->find(arity);
  if (eit == empties->end()) {
    eit = empties->emplace(arity, CTable(arity)).first;
  }
  return eit->second;
}

CDatabase CDatabase::FromDatabase(const Database& d) {
  CDatabase out(d.schema());
  for (const auto& [name, rel] : d.relations()) {
    *out.MutableTable(name, rel.arity()) = CTable::FromRelation(rel);
  }
  return out;
}

std::set<NullId> CDatabase::Nulls() const {
  std::set<NullId> out;
  for (const auto& [name, t] : tables_) {
    auto n = t.Nulls();
    out.insert(n.begin(), n.end());
  }
  return out;
}

std::set<Value> CDatabase::Constants() const {
  std::set<Value> out;
  for (const auto& [name, t] : tables_) {
    auto c = t.Constants();
    out.insert(c.begin(), c.end());
  }
  return out;
}

Status CDatabase::ForEachWorld(const std::vector<Value>& domain,
                               const std::function<bool(const Database&)>& fn,
                               uint64_t max_worlds) const {
  const std::set<NullId> null_set = Nulls();
  const std::vector<NullId> nulls(null_set.begin(), null_set.end());
  if (!nulls.empty() && domain.empty()) {
    return Status::InvalidArgument("empty domain with nulls present");
  }

  uint64_t emitted = 0;
  auto emit = [&](const Valuation& v) -> bool {
    // Build the world; global conditions act as filters per table. A world
    // exists only if every table's global condition holds.
    Database world;
    for (const auto& [name, table] : tables_) {
      bool ok = true;
      Relation rel = table.ApplyValuation(v, &ok);
      if (!ok) return true;  // valuation excluded; continue enumeration
      *world.MutableRelation(name, table.arity()) = std::move(rel);
    }
    ++emitted;
    return fn(world);
  };

  if (nulls.empty()) {
    emit(Valuation());
    return Status::OK();
  }

  std::vector<size_t> idx(nulls.size(), 0);
  uint64_t visited = 0;
  for (;;) {
    Valuation v;
    for (size_t i = 0; i < nulls.size(); ++i) v.Bind(nulls[i], domain[idx[i]]);
    if (++visited > max_worlds) {
      return Status::ResourceExhausted("c-table world enumeration too large");
    }
    if (!emit(v)) return Status::OK();
    size_t pos = 0;
    while (pos < idx.size() && ++idx[pos] == domain.size()) {
      idx[pos] = 0;
      ++pos;
    }
    if (pos == idx.size()) break;
  }
  return Status::OK();
}

std::string CDatabase::ToString() const {
  std::string s;
  for (const auto& [name, t] : tables_) {
    s += name + " = " + t.ToString() + "\n";
  }
  return s;
}

}  // namespace incdb
