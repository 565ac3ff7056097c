// The Imieliński–Lipski algebra on conditional tables: a strong
// representation system for full relational algebra under CWA.
//
// For every operator the result's worlds are exactly the operator applied to
// the input's worlds: ⟦Q(T)⟧_cwa = Q(⟦T⟧_cwa). The price is condition
// growth — difference multiplies each left row's condition by the negation
// of every right row (bench E5 measures this).
//
// Supported selection predicates: equalities/inequalities under AND/OR/NOT
// (order comparisons are admitted only when both operands resolve to
// constants — a condition on nulls with `<` is outside the equality-
// condition language of c-tables).

#ifndef INCDB_CTABLES_CTABLE_ALGEBRA_H_
#define INCDB_CTABLES_CTABLE_ALGEBRA_H_

#include <unordered_map>
#include <vector>

#include "algebra/ast.h"
#include "core/possible_worlds.h"
#include "ctables/condition_norm.h"
#include "ctables/ctable.h"
#include "engine/stats.h"

namespace incdb {

/// Evaluates a relational algebra expression over a c-table database.
/// Division is expanded to its σπ×− form first. Δ ranges over the active
/// domain (constants and nulls) of the c-database.
Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db,
                             const EvalOptions& options);
Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db);

/// The c-table-native pipeline's evaluator: same semantics as the overloads
/// above, but every produced row condition is lazily normalized/hash-consed
/// through `norm` (rows whose condition normalizes to `false` are dropped
/// outright), and when `options.use_hash_kernels` a σ-over-× peephole runs
/// the fused hash equi-join kernel (ctable_kernels.h) instead of
/// materializing the conditional cross product.
Result<CTable> EvalOnCTables(const RAExprPtr& e, const CDatabase& db,
                             const EvalOptions& options,
                             ConditionNormalizer* norm);

/// Converts a selection predicate applied to a (possibly null-carrying)
/// tuple into a condition. Fails (kUnsupported) for order comparisons with
/// unresolved nulls and for IS NULL (which is not world-invariant).
Result<ConditionPtr> PredicateToCondition(const PredicatePtr& pred,
                                          const Tuple& t);

/// The rows of a c-table that can match a given tuple, found by lookup.
///
/// Null-free rows are bucketed by tuple. A complete tuple `t` can only match
/// the rows in its own bucket plus the null-carrying rows: for any other
/// null-free row, "tuple_r = t" compares two distinct constants somewhere,
/// which the Condition factories fold to `false`, and a `false` conjunct or
/// disjunct folds away. So a fold over the candidate rows builds the very
/// node a fold over every row builds, as long as the candidates are visited
/// in row order. A tuple with a null can match any row and visits them all.
/// The index holds row positions, not rows: use it only with the table it
/// was built from, unchanged since.
class RowIndex {
 public:
  explicit RowIndex(const CTable& t);

  /// Positions of the null-free rows whose tuple equals `t`, increasing.
  const std::vector<size_t>& ExactRows(const Tuple& t) const;
  /// Positions of the rows whose tuple carries a null, increasing.
  const std::vector<size_t>& NullRows() const { return null_rows_; }

  /// Calls `fn(i)` for every row position `i` that can match `t`, in
  /// increasing order, until `fn` returns false.
  template <typename Fn>
  void ForEachCandidate(const Tuple& t, Fn&& fn) const {
    if (t.HasNull()) {
      for (size_t i = 0; i < num_rows_; ++i) {
        if (!fn(i)) return;
      }
      return;
    }
    const std::vector<size_t>& exact = ExactRows(t);
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
  size_t num_rows_;
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash> complete_;
  std::vector<size_t> null_rows_;
};

// Individual operators, exposed for tests. Difference and intersection pair
// each left row only with the right rows a RowIndex finds for its tuple; the
// result is structurally the one the full nested loop builds. When `norm` is
// non-null, result row conditions are normalized and rows proven `false`
// are dropped (semantics unchanged — those rows exist in no world).
Result<CTable> SelectCT(const PredicatePtr& pred, const CTable& in,
                        ConditionNormalizer* norm = nullptr);
CTable ProjectCT(const std::vector<size_t>& cols, const CTable& in);
CTable ProductCT(const CTable& l, const CTable& r, EvalStats* stats = nullptr,
                 ConditionNormalizer* norm = nullptr);
Result<CTable> UnionCT(const CTable& l, const CTable& r,
                       ConditionNormalizer* norm = nullptr);
Result<CTable> DiffCT(const CTable& l, const CTable& r,
                      EvalStats* stats = nullptr,
                      ConditionNormalizer* norm = nullptr);
Result<CTable> IntersectCT(const CTable& l, const CTable& r,
                           EvalStats* stats = nullptr,
                           ConditionNormalizer* norm = nullptr);

/// Condition "t = s" componentwise.
ConditionPtr TuplesEqualCondition(const Tuple& t, const Tuple& s);

/// D_t of the extraction equations: the condition under which the complete
/// tuple `cand` is a member of the world the table `t` represents under a
/// valuation — ⋁_rows (cond_r ∧ "tuple_r = cand"). `index` is a RowIndex of
/// `t`; it limits the fold to the candidate's exact-match rows plus the
/// null-carrying rows, so building D_t costs those rows, not all of `t`. The
/// counting layer (counting/probabilistic.h) counts/samples satisfying
/// valuations of global ∧ D_t to turn membership into a probability.
ConditionPtr TupleMembershipCondition(const CTable& t, const RowIndex& index,
                                      const Tuple& cand);

// ---------------------------------------------------------------------------
// Direct certain/possible-answer extraction (the c-table-native pipeline).
//
// Because c-tables are a strong representation system, the worlds of the
// result table T are exactly { Q(D') : D' ∈ ⟦D⟧_cwa }, so:
//
//   t is certain  ⟺  global(T) ∧ ¬D_t is unsatisfiable over the enumeration
//                    domain, where D_t = ⋁_rows (cond_r ∧ "tuple_r = t");
//   t is possible ⟺  some row's condition ∧ "tuple_r = t" is satisfiable.
//
// Satisfiability is decided over the same finite domain world enumeration
// uses (core/possible_worlds.h), which is what makes the answers
// bit-identical to CertainAnswersEnum / PossibleAnswersEnum — without ever
// materializing a world.
// ---------------------------------------------------------------------------

/// Certain answers of the result c-table `t` with nulls ranging over
/// `domain`. Candidates come from grounding `t` under one witness valuation
/// of the global condition (every certain tuple appears in that world), so
/// the cost is |rows| satisfiability checks, not |domain|^#nulls world
/// evaluations. Fails InvalidArgument when the global condition is
/// unsatisfiable over `domain` (the represented world set is empty, and
/// "certain" is undefined); ResourceExhausted when one satisfiability
/// search exceeds `budget` branch steps.
Result<Relation> CertainAnswersFromCTable(const CTable& t,
                                          const std::vector<Value>& domain,
                                          ConditionNormalizer* norm,
                                          uint64_t budget = 50'000'000,
                                          EvalStats* stats = nullptr);

/// Possible answers of `t` over `domain`: every grounding of every row's
/// tuple whose combined condition (global ∧ row ∧ bindings) is satisfiable.
/// Branches over tuple-null bindings are pruned as soon as the substituted
/// condition normalizes to `false`. A ground row whose tuple is already
/// known to be possible is skipped before its satisfiability check (a
/// kCTableExtract probe): many rows carrying one tuple cost one check once
/// one of them is found satisfiable.
Result<Relation> PossibleAnswersFromCTable(const CTable& t,
                                           const std::vector<Value>& domain,
                                           ConditionNormalizer* norm,
                                           uint64_t budget = 50'000'000,
                                           EvalStats* stats = nullptr);

/// Certain answers computed representation-natively: lift `db` to c-tables,
/// run the (optimized, when options.optimize) plan through the normalizing
/// kernel evaluator, extract. Bit-identical to CertainAnswersEnum with the
/// same `opts` — including the OWA/WCWA positive-query guard — but never
/// enumerates worlds: databases whose |domain|^#nulls explodes past
/// opts.max_worlds stay answerable. opts.max_worlds is reused as the
/// per-check satisfiability branch budget; options.stats receives the
/// c-table operator counters plus cond_simplified / unsat_pruned.
Result<Relation> CertainAnswersCTable(const RAExprPtr& e, const Database& db,
                                      WorldSemantics semantics,
                                      const WorldEnumOptions& opts = {},
                                      const EvalOptions& options = {});

/// Possible answers, representation-natively. Bit-identical to
/// PossibleAnswersEnum with the same `opts`.
Result<Relation> PossibleAnswersCTable(const RAExprPtr& e, const Database& db,
                                       const WorldEnumOptions& opts = {},
                                       const EvalOptions& options = {});

}  // namespace incdb

#endif  // INCDB_CTABLES_CTABLE_ALGEBRA_H_
