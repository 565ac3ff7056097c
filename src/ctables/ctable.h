// Conditional tables (c-tables): tuples guarded by equality conditions plus
// a global condition (paper, Section 2).
//
//   ⟦T⟧_cwa = { { v(t_i) | v ⊨ c_i } : valuations v with v ⊨ c_global }
//
// C-tables are a *strong* representation system for full relational algebra
// under CWA [Imieliński & Lipski 1984]: the algebra over c-tables satisfies
// ⟦Q(T)⟧ = Q(⟦T⟧). It runs on dictionary codes (ctables/code_ctable.h);
// EvalOnCTables (ctable_algebra.h) takes and returns the CTable and
// CDatabase types here, which are also the text format (ctables/cio.h).

#ifndef INCDB_CTABLES_CTABLE_H_
#define INCDB_CTABLES_CTABLE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "ctables/condition.h"
#include "util/status.h"

namespace incdb {

/// One row of a c-table: a tuple and the condition under which it exists.
struct CTableRow {
  Tuple tuple;
  ConditionPtr condition;
};

/// A conditional table.
class CTable {
 public:
  explicit CTable(size_t arity = 0)
      : arity_(arity), global_(Condition::True()) {}

  size_t arity() const { return arity_; }
  const std::vector<CTableRow>& rows() const { return rows_; }
  const ConditionPtr& global_condition() const { return global_; }

  void AddRow(Tuple t, ConditionPtr c);
  void SetGlobalCondition(ConditionPtr c) { global_ = std::move(c); }

  /// Lifts a naïve table: every row gets condition true.
  static CTable FromRelation(const Relation& r);

  /// Total condition-AST size across rows and the global condition
  /// (complexity metric for bench E5).
  size_t TotalConditionSize() const;

  /// Nulls appearing in tuples or conditions.
  std::set<NullId> Nulls() const;
  /// Constants appearing in tuples or conditions.
  std::set<Value> Constants() const;

  /// The world selected by a total valuation v (v must bind all nulls and
  /// satisfy the global condition for the world to be meaningful; if
  /// v ⊭ global, returns nullopt semantics via `ok=false`).
  Relation ApplyValuation(const Valuation& v, bool* global_ok = nullptr) const;

  /// Drops rows with unsatisfiable conditions; folds a false global
  /// condition into an empty world-set marker (global stays false).
  CTable Simplified() const;

  std::string ToString() const;

 private:
  size_t arity_;
  std::vector<CTableRow> rows_;
  ConditionPtr global_;
};

/// A database of c-tables sharing one space of nulls.
class CDatabase {
 public:
  CDatabase() = default;
  explicit CDatabase(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  CTable* MutableTable(const std::string& name, size_t arity_hint = 0);
  const CTable& GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }
  const std::map<std::string, CTable>& tables() const { return tables_; }

  /// Lifts a naïve database (all conditions true).
  static CDatabase FromDatabase(const Database& d);

  /// Nulls across all tables and conditions.
  std::set<NullId> Nulls() const;
  /// Constants across all tables and conditions.
  std::set<Value> Constants() const;

  /// Enumerates the worlds ⟦·⟧_cwa over `domain` (each null takes each
  /// domain value). `fn` returning false stops enumeration.
  Status ForEachWorld(const std::vector<Value>& domain,
                      const std::function<bool(const Database&)>& fn,
                      uint64_t max_worlds = 50'000'000) const;

  std::string ToString() const;

 private:
  Schema schema_;
  std::map<std::string, CTable> tables_;
};

}  // namespace incdb

#endif  // INCDB_CTABLES_CTABLE_H_
