// Pieces shared by the evaluators that run on dictionary codes or fuse
// σ_{col=col}(l × r) into a hash join: the columnar engine
// (engine/vectorized.h), the delta evaluator (engine/delta_eval.h), the
// c-table engine (ctables/code_ctable.h), SQL's code path (sql/eval.h) and
// the plan optimizer. Keeping one equi-join splitter means they all
// recognize exactly the same join shapes.
//
// Keeping one compile step means they all compare a code with a constant
// alike. CompilePred turns an RA selection predicate or join residual into
// nodes over one sorted dictionary, once per σ or residual: each
// column-vs-constant comparison resolves to a range of codes through
// ResolveCmp there and nowhere else in the RA engines, so no batch or row
// loop searches the dictionary. The columnar engine builds each batch's
// mask from the nodes (Kleene under 3VL), the delta evaluator tests each
// row with CodePred::Holds, and the c-table engine turns the nodes into
// conditions on a row's codes and null slots. SQL's code path compiles
// its own conditions per query but takes each comparison's range from
// ResolveCmp. The references (EvalNaive's nested loops, the 3VL fold,
// Predicate::EvalNaive / Eval3VL and SQL's tuple evaluator) decide on
// Values and use neither.

#ifndef INCDB_ENGINE_KERNELS_H_
#define INCDB_ENGINE_KERNELS_H_

#include <compare>
#include <cstdint>
#include <vector>

#include "algebra/predicate.h"
#include "core/columnar.h"

namespace incdb {

/// One equi-join column pair: left column of the (virtual) concatenated
/// tuple and right column *relative to the right relation*.
struct JoinKey {
  size_t left_col;
  size_t right_col;
};

/// Partition of a selection predicate over a product whose left input has
/// arity `left_arity`: cross-boundary column equalities become join keys,
/// everything else is re-ANDed into the residual (null when empty).
struct JoinSplit {
  std::vector<JoinKey> keys;
  PredicatePtr residual;
};

/// Splits the top-level AND-conjuncts of `pred` for the equi-join kernels.
JoinSplit SplitForEquiJoin(const PredicatePtr& pred, size_t left_arity);

/// Whether `op` holds between two values that compare as `cmp`.
bool CmpBool(CmpOp op, std::strong_ordering cmp);

/// The operator with its operands swapped (a < b ⇔ b > a).
CmpOp MirrorOp(CmpOp op);

/// `code OP c` for every code of one sorted dictionary, resolved to ranks
/// once: the codes in [lo, hi) satisfy it, or, when `negate` (≠), the codes
/// outside. Valid because the dictionary is sorted by the total Value order,
/// the order the nested-loop references compare with; `c` need not be in
/// the dictionary.
struct CodeRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool negate = false;

  bool Holds(uint32_t code) const { return (code - lo < hi - lo) != negate; }
};

CodeRange ResolveCmp(CmpOp op, const ValueDict& dict, const Value& c);

/// A predicate compiled against one dictionary: the nodes of its tree in
/// postorder, the root last. A comparison of two columns compares their
/// codes; one of a column with a constant tests the column's code against
/// the constant's range, its operator mirrored when the constant is on the
/// left; one of two constants, like IS NULL of a constant, is folded; IS
/// NULL of a column tests its code against the dictionary's null_end. A
/// null constant stays one: the range holds its code, as naïve logic reads
/// it, `null_const` marks it UNKNOWN under 3VL, and `constant` keeps it for
/// the c-table engine's terms.
struct CodePred {
  struct Node {
    enum class Kind { kConst, kColumns, kRange, kIsNull, kAnd, kOr, kNot };
    Kind kind = Kind::kConst;
    bool value = false;       // kConst: the naïve truth value
    bool null_const = false;  // kConst, kRange: a constant operand is null
    CmpOp op = CmpOp::kEq;    // kColumns: a op b; kRange: a op constant
    size_t a = 0, b = 0;      // the columns (a alone for kRange, kIsNull)
    CodeRange range;          // kRange
    Value constant;           // kRange
    PredicatePtr cmp;         // kColumns, kRange: the source comparison
    size_t l = 0, r = 0;      // operand nodes of ∧, ∨ (l alone for ¬)
  };

  std::vector<Node> nodes;
  /// The columns the predicate reads, ascending, each once.
  std::vector<size_t> columns;
  /// The dictionary's null_end: codes below it are nulls.
  uint32_t null_end = 0;

  bool empty() const { return nodes.empty(); }
  size_t root() const { return nodes.size() - 1; }
  /// Naïve evaluation on one row of codes: nulls are values, and the
  /// dictionary's order is the total Value order. True when empty.
  bool Holds(const uint32_t* row) const;

 private:
  bool HoldsAt(size_t i, const uint32_t* row) const;
};

/// `p` compiled against `dict`.
CodePred CompilePred(const PredicatePtr& p, const ValueDict& dict);

}  // namespace incdb

#endif  // INCDB_ENGINE_KERNELS_H_
