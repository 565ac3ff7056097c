#include "service/snapshot.h"

#include <utility>

namespace incdb {

namespace {

// Forces the lazy per-relation caches that query evaluation touches, so
// every later accessor call from a reader session is a pure lookup:
// canonical tuples (which Contains() binary-searches) and the completeness
// memo. Untouched relations share already-built caches with the previous
// snapshot, so forcing them is a no-op (EnsureCanonical sees a clean
// copy). Columnar() returns the form EncodeRelations adopted.
void ForceRelation(const Relation& rel) {
  rel.tuples();
  rel.Columnar();
  rel.IsComplete();
}

// Codes of `rel`'s rows against `base`. Rows that `old` (encoded against
// `base`) also holds copy its codes; both row lists are canonical, so one
// merge walk finds them. Values `base` lacks get ValueDict::kNotFound and
// go to `missing`.
std::vector<std::vector<uint32_t>> EncodeRows(const Relation& rel,
                                              const Relation& old,
                                              const ValueDict& base,
                                              std::vector<Value>* missing) {
  const std::vector<Tuple>& rows = rel.tuples();
  const size_t arity = rel.arity();
  std::vector<std::vector<uint32_t>> cols(arity);
  for (std::vector<uint32_t>& col : cols) col.reserve(rows.size());
  const ColumnarRelation& old_cols = *old.ColumnarIfBuilt();
  const std::vector<Tuple>& old_rows = old.tuples();
  size_t j = 0;
  for (const Tuple& t : rows) {
    while (j < old_rows.size() && old_rows[j] < t) ++j;
    if (j < old_rows.size() && old_rows[j] == t) {
      for (size_t c = 0; c < arity; ++c) cols[c].push_back(old_cols.col(c)[j]);
      ++j;
      continue;
    }
    for (size_t c = 0; c < arity; ++c) {
      const uint32_t code = base.Find(t[c]);
      if (code == ValueDict::kNotFound) missing->push_back(t[c]);
      cols[c].push_back(code);
    }
  }
  return cols;
}

// One relation's codes during encoding, against sources[source] of
// EncodeRelations (0 is the previous snapshot's dictionary).
struct Encoding {
  Relation* rel;
  size_t source;
  // Codes against the previous dictionary, kNotFound where it lacks the
  // value; empty when `form` holds the codes.
  std::vector<std::vector<uint32_t>> cols;
  std::shared_ptr<const ColumnarRelation> form;
};

// Encodes every relation of `db` against one dictionary and returns it:
// `base` (the previous snapshot's, null for the seed) merged with the
// values it lacks. A relation keeps its codes when they are against `base`
// already (unchanged since `prev_db`), reuses the rows it shares with its
// previous version, or else is encoded against a dictionary of its own
// values, which joins the merge.
std::shared_ptr<const ValueDict> EncodeRelations(
    Database* db, const Database* prev_db,
    std::shared_ptr<const ValueDict> base) {
  if (base == nullptr) base = std::make_shared<const ValueDict>();
  std::vector<std::shared_ptr<const ValueDict>> sources = {base};
  std::vector<Encoding> encodings;
  std::vector<Value> missing;
  for (const auto& [name, unused] : db->relations()) {
    Relation* rel = db->MutableRelation(name);
    const ColumnarRelation* own = rel->ColumnarIfBuilt();
    if (own != nullptr && own->dict_ptr() == base) {
      encodings.push_back({rel, 0, {}, rel->Columnar()});
      continue;
    }
    const Relation* old = nullptr;
    if (own == nullptr && prev_db != nullptr && prev_db->HasRelation(name)) {
      old = &prev_db->GetRelation(name);
      const ColumnarRelation* old_cols = old->ColumnarIfBuilt();
      if (old_cols == nullptr || old_cols->dict_ptr() != base) old = nullptr;
    }
    if (old != nullptr) {
      encodings.push_back(
          {rel, 0, EncodeRows(*rel, *old, *base, &missing), nullptr});
      continue;
    }
    std::shared_ptr<const ColumnarRelation> form = rel->Columnar();
    sources.push_back(form->dict_ptr());
    encodings.push_back({rel, sources.size() - 1, {}, std::move(form)});
  }
  std::shared_ptr<const ValueDict> added;
  if (!missing.empty()) {
    added = ValueDict::Build(std::move(missing));
    sources.push_back(added);
  }

  // into[i] translates sources[i]'s codes into the merge (empty: the
  // identity, for `base` when nothing was merged).
  std::vector<std::vector<uint32_t>> into;
  std::shared_ptr<const ValueDict> dict = MergeDictList(sources, &into);

  for (Encoding& e : encodings) {
    const std::vector<uint32_t>& translate = into[e.source];
    if (e.form != nullptr && translate.empty()) continue;  // codes hold
    const size_t arity = e.rel->arity();
    if (e.form != nullptr) {
      e.cols.resize(arity);
      for (size_t c = 0; c < arity; ++c) {
        e.cols[c].reserve(e.form->rows());
        for (const uint32_t code : e.form->col(c)) {
          e.cols[c].push_back(translate[code]);
        }
      }
    } else if (!translate.empty()) {
      const std::vector<Tuple>& rows = e.rel->tuples();
      const std::vector<uint32_t>& from_added = into.back();
      for (size_t c = 0; c < arity; ++c) {
        std::vector<uint32_t>& col = e.cols[c];
        for (size_t row = 0; row < col.size(); ++row) {
          col[row] = col[row] == ValueDict::kNotFound
                         ? from_added[added->Find(rows[row][c])]
                         : translate[col[row]];
        }
      }
    }
    e.rel->AdoptColumnar(std::make_shared<const ColumnarRelation>(
        arity, e.rel->size(), dict, std::move(e.cols)));
  }
  return dict;
}

}  // namespace

std::shared_ptr<const DatabaseSnapshot> DatabaseSnapshot::Make(
    Database db, uint64_t version,
    const std::shared_ptr<const DatabaseSnapshot>& prev) {
  std::shared_ptr<DatabaseSnapshot> snap(
      new DatabaseSnapshot(std::move(db), version));
  snap->dict_ =
      EncodeRelations(&snap->db_, prev == nullptr ? nullptr : &prev->db(),
                      prev == nullptr ? nullptr : prev->dict_);
  for (const auto& [name, rel] : snap->db_.relations()) ForceRelation(rel);

  if (prev == nullptr) {
    // Seed snapshot: nothing to diff against; whole-database dependents
    // computed on it are valid until the first real change.
    snap->any_changed_ = version;
    return snap;
  }

  snap->last_changed_ = prev->last_changed_;
  snap->any_changed_ = prev->any_changed_;
  bool changed_any = false;
  for (const auto& [name, rel] : snap->db_.relations()) {
    const Relation& old = prev->db().GetRelation(name);
    const bool unchanged =
        rel.SharesStorageWith(old) || (rel.empty() && old.empty());
    if (!unchanged) {
      snap->last_changed_[name] = version;
      changed_any = true;
    }
  }
  // Relations present before but dropped (or absent) now changed too.
  for (const auto& [name, old] : prev->db().relations()) {
    if (!snap->db_.HasRelation(name) && !old.empty()) {
      snap->last_changed_[name] = version;
      changed_any = true;
    }
  }
  if (changed_any) snap->any_changed_ = version;
  return snap;
}

uint64_t DatabaseSnapshot::LastChanged(const std::string& name) const {
  auto it = last_changed_.find(name);
  return it == last_changed_.end() ? 0 : it->second;
}

}  // namespace incdb
