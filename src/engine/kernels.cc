#include "engine/kernels.h"

#include <algorithm>
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

size_t CompileNode(const PredicatePtr& pred, const ValueDict& dict,
                   CodePred* out) {
  using Node = CodePred::Node;
  const Predicate& p = *pred;
  Node n;
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
    case Predicate::Kind::kFalse:
      n.value = p.kind() == Predicate::Kind::kTrue;
      break;
    case Predicate::Kind::kCmp: {
      const Term& l = p.lhs();
      const Term& r = p.rhs();
      const bool lc = l.kind == Term::Kind::kColumn;
      const bool rc = r.kind == Term::Kind::kColumn;
      if (lc && rc) {
        n.kind = Node::Kind::kColumns;
        n.op = p.op();
        n.a = l.column;
        n.b = r.column;
        n.cmp = pred;
        out->columns.push_back(n.a);
        out->columns.push_back(n.b);
      } else if (!lc && !rc) {
        n.value = CmpBool(p.op(), l.constant <=> r.constant);
        n.null_const = l.constant.is_null() || r.constant.is_null();
      } else {
        n.kind = Node::Kind::kRange;
        n.op = lc ? p.op() : MirrorOp(p.op());
        n.a = lc ? l.column : r.column;
        n.constant = lc ? r.constant : l.constant;
        n.null_const = n.constant.is_null();
        n.range = ResolveCmp(n.op, dict, n.constant);
        n.cmp = pred;
        out->columns.push_back(n.a);
      }
      break;
    }
    case Predicate::Kind::kIsNull:
      if (p.lhs().kind == Term::Kind::kConst) {
        n.value = p.lhs().constant.is_null();
      } else {
        n.kind = Node::Kind::kIsNull;
        n.a = p.lhs().column;
        out->columns.push_back(n.a);
      }
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      n.kind = p.kind() == Predicate::Kind::kAnd ? Node::Kind::kAnd
                                                 : Node::Kind::kOr;
      n.l = CompileNode(p.left(), dict, out);
      n.r = CompileNode(p.right(), dict, out);
      break;
    case Predicate::Kind::kNot:
      n.kind = Node::Kind::kNot;
      n.l = CompileNode(p.left(), dict, out);
      break;
  }
  out->nodes.push_back(std::move(n));
  return out->nodes.size() - 1;
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

CodePred CompilePred(const PredicatePtr& p, const ValueDict& dict) {
  CodePred out;
  out.null_end = dict.null_end;
  CompileNode(p, dict, &out);
  std::vector<size_t>& cols = out.columns;
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return out;
}

bool CodePred::Holds(const uint32_t* row) const {
  return nodes.empty() || HoldsAt(root(), row);
}

bool CodePred::HoldsAt(size_t i, const uint32_t* row) const {
  const Node& n = nodes[i];
  switch (n.kind) {
    case Node::Kind::kConst:
      return n.value;
    case Node::Kind::kColumns:
      return CmpBool(n.op, row[n.a] <=> row[n.b]);
    case Node::Kind::kRange:
      return n.range.Holds(row[n.a]);
    case Node::Kind::kIsNull:
      return row[n.a] < null_end;
    case Node::Kind::kAnd:
      return HoldsAt(n.l, row) && HoldsAt(n.r, row);
    case Node::Kind::kOr:
      return HoldsAt(n.l, row) || HoldsAt(n.r, row);
    case Node::Kind::kNot:
      return !HoldsAt(n.l, row);
  }
  return false;
}

}  // namespace incdb
