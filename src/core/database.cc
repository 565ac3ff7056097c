#include "core/database.h"

#include <mutex>

#include "util/status.h"

namespace incdb {

namespace {
const Relation& EmptyRelation(size_t arity) {
  // Shared immutable empties, one per arity ever requested. Mutex-guarded:
  // concurrent readers (service sessions) may race to create an arity's
  // entry. Map node stability keeps returned references valid across later
  // insertions; the lazy caches are forced at creation so readers of the
  // shared empty never build them.
  static std::mutex* mu = new std::mutex;
  static std::map<size_t, Relation>* empties = new std::map<size_t, Relation>;
  std::lock_guard<std::mutex> lock(*mu);
  auto it = empties->find(arity);
  if (it == empties->end()) {
    it = empties->emplace(arity, Relation(arity)).first;
    it->second.tuples();
    it->second.Columnar();
    it->second.IsComplete();
  }
  return it->second;
}
}  // namespace

Relation* Database::MutableRelation(const std::string& name,
                                    size_t arity_hint) {
  auto it = relations_.find(name);
  if (it != relations_.end()) return &it->second;
  size_t arity = arity_hint;
  if (schema_.HasRelation(name)) {
    arity = *schema_.Arity(name);
  } else {
    (void)schema_.AddRelation(name, arity);
  }
  return &relations_.emplace(name, Relation(arity)).first->second;
}

const Relation& Database::GetRelation(const std::string& name) const {
  auto it = relations_.find(name);
  if (it != relations_.end()) return it->second;
  size_t arity = 0;
  if (schema_.HasRelation(name)) arity = *schema_.Arity(name);
  return EmptyRelation(arity);
}

void Database::AddTuple(const std::string& name, Tuple t) {
  const size_t arity = t.arity();
  MutableRelation(name, arity)->Add(std::move(t));
}

size_t Database::TupleCount() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

std::set<NullId> Database::Nulls() const {
  std::set<NullId> out;
  for (const auto& [name, rel] : relations_) {
    auto nulls = rel.Nulls();
    out.insert(nulls.begin(), nulls.end());
  }
  return out;
}

std::set<Value> Database::Constants() const {
  std::set<Value> out;
  for (const auto& [name, rel] : relations_) {
    auto consts = rel.Constants();
    out.insert(consts.begin(), consts.end());
  }
  return out;
}

std::set<Value> Database::ActiveDomain() const {
  std::set<Value> out = Constants();
  for (NullId id : Nulls()) out.insert(Value::Null(id));
  return out;
}

bool Database::IsComplete() const {
  for (const auto& [name, rel] : relations_) {
    if (!rel.IsComplete()) return false;
  }
  return true;
}

bool Database::IsCoddDatabase() const {
  std::map<NullId, int> counts;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t.values()) {
        if (v.is_null() && ++counts[v.null_id()] > 1) return false;
      }
    }
  }
  return true;
}

Database Database::CompletePart() const {
  Database out(schema_);
  for (const auto& [name, rel] : relations_) {
    *out.MutableRelation(name, rel.arity()) = rel.CompletePart();
  }
  return out;
}

NullId Database::FreshNullId() const {
  auto nulls = Nulls();
  return nulls.empty() ? 0 : *nulls.rbegin() + 1;
}

bool Database::operator==(const Database& o) const {
  for (const auto& [name, rel] : relations_) {
    const Relation& other = o.GetRelation(name);
    // Empty relations compare equal regardless of declared arity.
    if (rel.empty() && other.empty()) continue;
    if (rel != other) return false;
  }
  for (const auto& [name, rel] : o.relations_) {
    if (relations_.count(name) == 0 && !rel.empty()) return false;
  }
  return true;
}

bool Database::IsSubinstanceOf(const Database& o) const {
  for (const auto& [name, rel] : relations_) {
    if (rel.empty()) continue;
    if (!rel.IsSubsetOf(o.GetRelation(name))) return false;
  }
  return true;
}

std::string Database::ToString() const {
  std::string s;
  for (const auto& [name, rel] : relations_) {
    s += name + " = " + rel.ToString() + "\n";
  }
  return s;
}

}  // namespace incdb
