// Relational algebra expression trees.
//
// Operators: scan, literal relation, σ (select), π (project), × (product),
// ∪ (union), − (difference), ∩ (intersection), ÷ (division), and Δ — the
// diagonal { (a,a) | a ∈ adom(D) } used by the paper's RA_cwa fragment
// (Section 6.2). Columns are positional; attribute-name resolution lives in
// the SQL layer.

#ifndef INCDB_ALGEBRA_AST_H_
#define INCDB_ALGEBRA_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/predicate.h"
#include "core/database.h"
#include "core/relation.h"

namespace incdb {

class RAExpr;
using RAExprPtr = std::shared_ptr<const RAExpr>;

/// One node of a relational algebra expression.
class RAExpr {
 public:
  enum class Kind {
    kScan,      ///< base relation by name
    kConstRel,  ///< literal relation
    kSelect,    ///< σ_pred(child)
    kProject,   ///< π_cols(child)
    kProduct,   ///< left × right
    kUnion,     ///< left ∪ right
    kDiff,      ///< left − right
    kIntersect, ///< left ∩ right
    kDivide,    ///< left ÷ right (divides on the last arity(right) columns)
    kDelta,     ///< Δ = {(a,a) | a ∈ adom(D)}
  };

  Kind kind() const { return kind_; }
  const std::string& relation_name() const { return name_; }
  const Relation& literal() const { return literal_; }
  const PredicatePtr& predicate() const { return pred_; }
  const std::vector<size_t>& columns() const { return cols_; }
  const RAExprPtr& left() const { return left_; }
  const RAExprPtr& right() const { return right_; }

  /// Output arity given a schema (validates column/arity consistency).
  Result<size_t> InferArity(const Schema& schema) const;

  /// Algebra-style rendering, e.g. "π{0}(R − S)".
  std::string ToString() const;

  // Factories.
  static RAExprPtr Scan(std::string name);
  static RAExprPtr ConstRel(Relation r);
  static RAExprPtr Select(PredicatePtr pred, RAExprPtr child);
  static RAExprPtr Project(std::vector<size_t> cols, RAExprPtr child);
  static RAExprPtr Product(RAExprPtr l, RAExprPtr r);
  static RAExprPtr Union(RAExprPtr l, RAExprPtr r);
  static RAExprPtr Diff(RAExprPtr l, RAExprPtr r);
  static RAExprPtr Intersect(RAExprPtr l, RAExprPtr r);
  static RAExprPtr Divide(RAExprPtr l, RAExprPtr r);
  static RAExprPtr Delta();

  /// Rewrites ÷ into its σπ×− expansion:
  ///   R ÷ S = π_A(R) − π_A((π_A(R) × S) − R).
  /// Used by evaluators that do not implement division natively (c-tables).
  static RAExprPtr ExpandDivision(const RAExprPtr& e, const Schema& schema);

 private:
  explicit RAExpr(Kind kind) : kind_(kind) {}

  Kind kind_;
  std::string name_;
  Relation literal_{0};
  PredicatePtr pred_;
  std::vector<size_t> cols_;
  RAExprPtr left_;
  RAExprPtr right_;
};

/// Appends the constants of `e`'s selection predicates, nulls included, to
/// `out`.
void CollectSelectionConstants(const RAExprPtr& e, std::vector<Value>* out);

}  // namespace incdb

#endif  // INCDB_ALGEBRA_AST_H_
