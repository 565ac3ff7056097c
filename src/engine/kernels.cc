#include "engine/kernels.h"

#include <utility>

namespace incdb {
namespace {

// Flattens the top-level AND spine of a predicate into conjuncts.
void FlattenAnd(const PredicatePtr& p, std::vector<PredicatePtr>* out) {
  if (p->kind() == Predicate::Kind::kAnd) {
    FlattenAnd(p->left(), out);
    FlattenAnd(p->right(), out);
    return;
  }
  out->push_back(p);
}

}  // namespace

JoinSplit SplitForEquiJoin(const PredicatePtr& pred, size_t left_arity) {
  std::vector<PredicatePtr> conjuncts;
  FlattenAnd(pred, &conjuncts);
  JoinSplit split;
  for (const PredicatePtr& c : conjuncts) {
    if (c->kind() == Predicate::Kind::kCmp && c->op() == CmpOp::kEq &&
        c->lhs().kind == Term::Kind::kColumn &&
        c->rhs().kind == Term::Kind::kColumn) {
      size_t a = c->lhs().column;
      size_t b = c->rhs().column;
      if (a > b) std::swap(a, b);
      if (a < left_arity && b >= left_arity) {
        split.keys.push_back(JoinKey{a, b - left_arity});
        continue;
      }
    }
    split.residual = split.residual ? Predicate::And(split.residual, c) : c;
  }
  return split;
}

}  // namespace incdb
