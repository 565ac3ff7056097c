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

bool CmpBool(CmpOp op, std::strong_ordering cmp) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // =, ≠ are symmetric
  }
}

CodeRange ResolveCmp(CmpOp op, const ValueDict& dict, const Value& c) {
  const uint32_t size = static_cast<uint32_t>(dict.size());
  switch (op) {
    case CmpOp::kEq:
    case CmpOp::kNe: {
      const uint32_t eq = dict.Find(c);
      CodeRange r;
      if (eq != ValueDict::kNotFound) r = CodeRange{eq, eq + 1};
      r.negate = op == CmpOp::kNe;
      return r;
    }
    case CmpOp::kLt: return CodeRange{0, dict.LowerBound(c)};
    case CmpOp::kLe: return CodeRange{0, dict.UpperBound(c)};
    case CmpOp::kGt: return CodeRange{dict.UpperBound(c), size};
    case CmpOp::kGe: return CodeRange{dict.LowerBound(c), size};
  }
  return CodeRange{};
}

}  // namespace incdb
