// The c-table backend on dictionary codes: conditional tables whose cells
// are the query's codes and null slots and whose conditions are node ids of
// one per-query CondArena (ctables/cond_arena.h).
//
// CertainAnswersCTable, PossibleAnswersCTable and
// CertainAnswersWithProbabilityCTable build one CTableQuery per query on
// the calling thread: the shared WorldEncoding of the plan over the
// database's WorldSpace (engine/world_encoding.h), an arena, and a
// ValueClassSolver over the domain codes. The plan runs once on code
// tables — σ, π, ×, the fused equi-join, ∪, −, ∩ and Δ — and the answer is
// extracted from the result table without materializing a world:
//
//   t is certain  ⟺  global ∧ ¬D_t is unsatisfiable, where
//                    D_t = ⋁_rows (cond_r ∧ "row_r = t");
//   t is possible ⟺  some row's condition ∧ "row_r = t" is satisfiable;
//   P(t)          =  #(global ∧ D_t) / #global over the uniform valuations.
//
// Satisfiability and counting run over the same finite domain world
// enumeration uses (core/possible_worlds.h), so the answers are those of
// CertainAnswersEnum / PossibleAnswersEnum. A base cell's null is a slot, a
// literal's null is a code like any constant (valuations never apply to
// literals). σ and join residuals compile once per call (CompilePred,
// engine/kernels.h); the world domain holds their constants
// (WithQueryConstants), and one outside the dictionary, as over stored
// c-tables, that meets a null gets a code of its own above the
// dictionary's, equal to no domain value.
//
// These are the only Imieliński–Lipski operators in the library. Stored
// c-tables (CDatabase: rows with local conditions and a global condition)
// enter through Make(plan, cdb), which imports every stored condition as an
// arena node; EvalOnCTables (ctables/ctable_algebra.h) evaluates on them
// and exports the result as a Condition-tree CTable. Difference and
// intersection visit a left row's candidates in row order and stop where
// an unconditional right row equal to it decides the result. Rows whose
// condition is `false` are dropped.
//
// The references are eq. (1) (ReferenceCertainAnswers /
// ReferencePossibleAnswers, testing/oracle.h) for the extracted answers,
// and the oracle's world-by-world check of the result table: under every
// valuation v, the rows whose condition holds, grounded on v's codes, are
// Q(v(D)) — the strong representation property.

#ifndef INCDB_CTABLES_CODE_CTABLE_H_
#define INCDB_CTABLES_CODE_CTABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ast.h"
#include "algebra/predicate.h"
#include "core/code_rows.h"
#include "core/database.h"
#include "core/possible_worlds.h"
#include "ctables/cond_arena.h"
#include "ctables/ctable.h"
#include "engine/kernels.h"
#include "engine/stats.h"
#include "engine/world_encoding.h"

namespace incdb {

/// A c-table over codes: `arity` cells per row and one condition per row.
struct CodeCTable {
  size_t arity = 0;
  std::vector<uint32_t> cells;
  std::vector<uint32_t> conds;
  uint32_t global = CondArena::kTrue;

  explicit CodeCTable(size_t a = 0) : arity(a) {}
  size_t rows() const { return conds.size(); }
  const uint32_t* Row(size_t i) const { return cells.data() + i * arity; }
  void Add(const uint32_t* row, uint32_t cond) {
    cells.insert(cells.end(), row, row + arity);
    conds.push_back(cond);
  }
};

/// Whether a row of `arity` cells holds a null slot.
inline bool RowHasSlot(const uint32_t* row, size_t arity) {
  for (size_t c = 0; c < arity; ++c) {
    if (row[c] & WorldEncoding::kNullSlot) return true;
  }
  return false;
}

/// Distinct rows of codes in ascending order (code order is Value order,
/// so this is the canonical tuple order): an extraction's answer.
struct SortedCodeRows {
  size_t arity = 0;
  size_t size = 0;
  std::vector<uint32_t> cells;

  const uint32_t* Row(size_t i) const { return cells.data() + i * arity; }
};

/// The rows of a code table that can match a given row. Null-free rows are
/// bucketed by their codes; a null-free row can only match its own bucket
/// and the rows that carry a null, because "row_r = t" is false at any
/// position where both are distinct codes. A row with a null can match any
/// row. Holds positions: use it only with the table it was built from.
class CodeRowIndex {
 public:
  explicit CodeRowIndex(const CodeCTable& t);

  /// Positions of the null-free rows equal to `row`, increasing.
  const std::vector<uint32_t>& ExactRows(const uint32_t* row) const;
  /// Positions of the rows that carry a null, increasing.
  const std::vector<uint32_t>& NullRows() const { return null_rows_; }

  /// Calls fn(i) for every position i that can match `row`, increasing,
  /// until fn returns false.
  template <typename Fn>
  void ForEachCandidate(const uint32_t* row, Fn&& fn) const {
    if (RowHasSlot(row, arity_)) {
      for (uint32_t i = 0; i < num_rows_; ++i) {
        if (!fn(i)) return;
      }
      return;
    }
    const std::vector<uint32_t>& exact = ExactRows(row);
    size_t e = 0;
    size_t n = 0;
    while (e < exact.size() || n < null_rows_.size()) {
      const bool take_exact =
          n == null_rows_.size() ||
          (e < exact.size() && exact[e] < null_rows_[n]);
      if (!fn(take_exact ? exact[e++] : null_rows_[n++])) return;
    }
  }

 private:
  size_t arity_;
  uint32_t num_rows_;
  CodeRows complete_;
  std::vector<std::vector<uint32_t>> buckets_;  // by complete_ slot
  std::vector<uint32_t> null_rows_;
};

/// True when `pred` (null = no residual) stays inside the c-table
/// condition language on every row: only =, ≠, TRUE/FALSE under AND/OR/
/// NOT. Order comparisons are excluded — even on constants — so a fused
/// join can never succeed where σ over × errors. IS NULL never errors, but
/// it is a test on the cell rather than a condition, and σ over × answers
/// it.
bool ResidualSafeForCTableJoin(const Predicate* pred);

/// One c-table query's encoding, arena and solver, and its operators.
/// Single-threaded while it builds; afterwards any number of threads may
/// evaluate its conditions (CondArena::Eval).
class CTableQuery {
 public:
  /// The query of `plan` over `space` (MakeWorldSpace of the database).
  static Result<std::unique_ptr<CTableQuery>> Make(const RAExprPtr& plan,
                                                   const WorldSpace& space);
  /// The query of `plan` over stored c-tables: the dictionary is `db`'s
  /// constants, its conditions' included, and the plan's literal values;
  /// the nulls are `db`'s, also those only its conditions mention. There is
  /// no domain: Eval and Export read none, Certain and Possible need one.
  static Result<std::unique_ptr<CTableQuery>> Make(const RAExprPtr& plan,
                                                   const CDatabase& db);
  /// A query over a caller-built encoding.
  explicit CTableQuery(WorldEncoding enc);
  CTableQuery(const CTableQuery&) = delete;
  CTableQuery& operator=(const CTableQuery&) = delete;

  const WorldEncoding& enc() const { return enc_; }
  CondArena& arena() { return arena_; }
  ValueClassSolver& solver() { return solver_; }

  /// Evaluates `plan` (division expanded first) on `db`, which must be the
  /// database the encoding was made for. σ over × runs the fused equi-join
  /// where the predicate has a key and a safe residual. options.stats
  /// receives the operator counters.
  Result<CodeCTable> Eval(const RAExprPtr& plan, const Database& db,
                          const EvalOptions& options);
  /// The same on stored c-tables: a scan imports the table, its conditions
  /// as arena nodes, and Δ ranges over `db`'s nulls and constants.
  Result<CodeCTable> Eval(const RAExprPtr& plan, const CDatabase& db,
                          const EvalOptions& options);

  // The operators.
  Result<CodeCTable> Select(const PredicatePtr& pred, const CodeCTable& in);
  CodeCTable Project(const std::vector<size_t>& cols, const CodeCTable& in);
  CodeCTable Product(const CodeCTable& l, const CodeCTable& r,
                     EvalStats* stats);
  /// σ_{keys ∧ residual}(l × r) by hash: a left row with codes in every key
  /// column probes its bucket and the right rows with a null in a key
  /// column; one with a null there visits every right row. Probes count
  /// the pairs visited.
  Result<CodeCTable> Join(const CodeCTable& l, const CodeCTable& r,
                          const std::vector<JoinKey>& keys,
                          const PredicatePtr& residual, EvalStats* stats);
  CodeCTable Union(const CodeCTable& l, const CodeCTable& r);
  CodeCTable Diff(const CodeCTable& l, const CodeCTable& r, EvalStats* stats);
  CodeCTable Intersect(const CodeCTable& l, const CodeCTable& r,
                       EvalStats* stats);

  /// "a = b" position by position.
  uint32_t RowsEqual(const uint32_t* a, const uint32_t* b, size_t arity);
  /// D_t: ⋁ over the rows `index` offers for `cand` of
  /// (cond_r ∧ "row_r = cand").
  uint32_t Membership(const CodeCTable& t, const CodeRowIndex& index,
                      const uint32_t* cand);

  /// The certain rows of `t`, ascending. Candidates are the rows of one
  /// world, the first satisfying valuation of the global condition with
  /// every other null at the first domain value, so the cost is one
  /// satisfiability check per candidate no unconditional row carries.
  /// Fails InvalidArgument when the global condition is unsatisfiable,
  /// ResourceExhausted when one check exceeds `budget` class branches.
  Result<SortedCodeRows> Certain(const CodeCTable& t, uint64_t budget,
                                 EvalStats* stats);
  /// The possible rows of `t`, ascending: every grounding of every row's
  /// nulls (each null over every domain value) whose condition stays
  /// satisfiable. A null-free row whose row is already possible is skipped
  /// before its check.
  Result<SortedCodeRows> Possible(const CodeCTable& t, uint64_t budget,
                                  EvalStats* stats);

  /// The value a term names.
  Value TermValue(uint32_t term) const;
  Tuple DecodeRow(const uint32_t* row, size_t arity) const;
  Relation Decode(const SortedCodeRows& rows) const;

  /// `t` on codes: its constants must be in the dictionary, its nulls among
  /// the encoding's.
  CodeCTable Import(const CTable& t);
  /// `t` as a Condition-tree c-table.
  CTable Export(const CodeCTable& t) const;

  /// Flushes the arena's simplification counters into `stats`.
  void CountConditionWork(EvalStats* stats) const;

 private:
  // The term of the constant of an = or ≠ node.
  uint32_t ConstTerm(const CodePred::Node& n);
  // "a ≠ b" somewhere, built atom by atom (the negation of RowsEqual as the
  // Condition-tree operators' NNF builds it, not the negation of its
  // normal form).
  uint32_t RowsDiffer(const uint32_t* a, const uint32_t* b, size_t arity);
  // The condition node `i` of `p` (its negation with `negate`) puts on
  // `row`, built in negation normal form from the predicate's own tree.
  Result<uint32_t> PredCond(const CodePred& p, size_t i, const uint32_t* row,
                            bool negate);
  // A base relation on codes, or a stored c-table imported.
  CodeCTable Scan(const Database& db, const std::string& name) const;
  CodeCTable Scan(const CDatabase& db, const std::string& name);
  // Eval on either source; only Scan differs.
  template <typename Source>
  Result<CodeCTable> Rec(const RAExprPtr& e, const Source& db,
                         EvalStats* stats);

  WorldEncoding enc_;
  CondArena arena_;
  ValueClassSolver solver_;
  // Constants of σ and join predicates outside the dictionary, coded from
  // dict().size() up.
  std::map<Value, uint32_t> extra_codes_;
  std::vector<Value> extra_;
  // Scratch for RowsEqual / RowsDiffer.
  std::vector<uint32_t> row_ops_;
};

}  // namespace incdb

#endif  // INCDB_CTABLES_CODE_CTABLE_H_
