#include "algebra/ast.h"

#include "util/strings.h"

namespace incdb {

Result<size_t> RAExpr::InferArity(const Schema& schema) const {
  switch (kind_) {
    case Kind::kScan:
      return schema.Arity(name_);
    case Kind::kConstRel:
      return literal_.arity();
    case Kind::kSelect: {
      INCDB_ASSIGN_OR_RETURN(size_t a, left_->InferArity(schema));
      if (pred_->MaxColumn() >= static_cast<int>(a)) {
        return Status::InvalidArgument(
            "selection predicate references column beyond arity " +
            std::to_string(a) + ": " + pred_->ToString());
      }
      return a;
    }
    case Kind::kProject: {
      INCDB_ASSIGN_OR_RETURN(size_t a, left_->InferArity(schema));
      for (size_t c : cols_) {
        if (c >= a) {
          return Status::InvalidArgument("projection column " +
                                         std::to_string(c) +
                                         " beyond arity " + std::to_string(a));
        }
      }
      return cols_.size();
    }
    case Kind::kProduct: {
      INCDB_ASSIGN_OR_RETURN(size_t a, left_->InferArity(schema));
      INCDB_ASSIGN_OR_RETURN(size_t b, right_->InferArity(schema));
      return a + b;
    }
    case Kind::kUnion:
    case Kind::kDiff:
    case Kind::kIntersect: {
      INCDB_ASSIGN_OR_RETURN(size_t a, left_->InferArity(schema));
      INCDB_ASSIGN_OR_RETURN(size_t b, right_->InferArity(schema));
      if (a != b) {
        return Status::InvalidArgument(
            "set operation on mismatched arities " + std::to_string(a) +
            " vs " + std::to_string(b));
      }
      return a;
    }
    case Kind::kDivide: {
      INCDB_ASSIGN_OR_RETURN(size_t a, left_->InferArity(schema));
      INCDB_ASSIGN_OR_RETURN(size_t b, right_->InferArity(schema));
      if (b == 0 || b >= a) {
        return Status::InvalidArgument(
            "division requires 0 < arity(divisor) < arity(dividend); got " +
            std::to_string(b) + " and " + std::to_string(a));
      }
      return a - b;
    }
    case Kind::kDelta:
      return size_t{2};
  }
  return Status::Internal("unknown RA node kind");
}

std::string RAExpr::ToString() const {
  switch (kind_) {
    case Kind::kScan:
      return name_;
    case Kind::kConstRel:
      return literal_.ToString();
    case Kind::kSelect:
      return "sel[" + pred_->ToString() + "](" + left_->ToString() + ")";
    case Kind::kProject: {
      std::vector<std::string> cs;
      cs.reserve(cols_.size());
      for (size_t c : cols_) cs.push_back(std::to_string(c));
      return "proj{" + Join(cs, ",") + "}(" + left_->ToString() + ")";
    }
    case Kind::kProduct:
      return "(" + left_->ToString() + " x " + right_->ToString() + ")";
    case Kind::kUnion:
      return "(" + left_->ToString() + " U " + right_->ToString() + ")";
    case Kind::kDiff:
      return "(" + left_->ToString() + " - " + right_->ToString() + ")";
    case Kind::kIntersect:
      return "(" + left_->ToString() + " & " + right_->ToString() + ")";
    case Kind::kDivide:
      return "(" + left_->ToString() + " / " + right_->ToString() + ")";
    case Kind::kDelta:
      return "DELTA";
  }
  return "?";
}

RAExprPtr RAExpr::Scan(std::string name) {
  auto* e = new RAExpr(Kind::kScan);
  e->name_ = std::move(name);
  return RAExprPtr(e);
}

RAExprPtr RAExpr::ConstRel(Relation r) {
  auto* e = new RAExpr(Kind::kConstRel);
  e->literal_ = std::move(r);
  return RAExprPtr(e);
}

RAExprPtr RAExpr::Select(PredicatePtr pred, RAExprPtr child) {
  auto* e = new RAExpr(Kind::kSelect);
  e->pred_ = std::move(pred);
  e->left_ = std::move(child);
  return RAExprPtr(e);
}

RAExprPtr RAExpr::Project(std::vector<size_t> cols, RAExprPtr child) {
  auto* e = new RAExpr(Kind::kProject);
  e->cols_ = std::move(cols);
  e->left_ = std::move(child);
  return RAExprPtr(e);
}

RAExprPtr RAExpr::Product(RAExprPtr l, RAExprPtr r) {
  auto* e = new RAExpr(Kind::kProduct);
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return RAExprPtr(e);
}
RAExprPtr RAExpr::Union(RAExprPtr l, RAExprPtr r) {
  auto* e = new RAExpr(Kind::kUnion);
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return RAExprPtr(e);
}
RAExprPtr RAExpr::Diff(RAExprPtr l, RAExprPtr r) {
  auto* e = new RAExpr(Kind::kDiff);
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return RAExprPtr(e);
}
RAExprPtr RAExpr::Intersect(RAExprPtr l, RAExprPtr r) {
  auto* e = new RAExpr(Kind::kIntersect);
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return RAExprPtr(e);
}
RAExprPtr RAExpr::Divide(RAExprPtr l, RAExprPtr r) {
  auto* e = new RAExpr(Kind::kDivide);
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return RAExprPtr(e);
}

RAExprPtr RAExpr::Delta() { return RAExprPtr(new RAExpr(Kind::kDelta)); }

RAExprPtr RAExpr::ExpandDivision(const RAExprPtr& e, const Schema& schema) {
  switch (e->kind()) {
    case Kind::kScan:
    case Kind::kConstRel:
    case Kind::kDelta:
      return e;
    case Kind::kSelect:
      return Select(e->predicate(), ExpandDivision(e->left(), schema));
    case Kind::kProject:
      return Project(e->columns(), ExpandDivision(e->left(), schema));
    case Kind::kProduct:
      return Product(ExpandDivision(e->left(), schema),
                     ExpandDivision(e->right(), schema));
    case Kind::kUnion:
      return Union(ExpandDivision(e->left(), schema),
                   ExpandDivision(e->right(), schema));
    case Kind::kDiff:
      return Diff(ExpandDivision(e->left(), schema),
                  ExpandDivision(e->right(), schema));
    case Kind::kIntersect:
      return Intersect(ExpandDivision(e->left(), schema),
                       ExpandDivision(e->right(), schema));
    case Kind::kDivide: {
      RAExprPtr r = ExpandDivision(e->left(), schema);
      RAExprPtr s = ExpandDivision(e->right(), schema);
      auto ra = r->InferArity(schema);
      auto sa = s->InferArity(schema);
      INCDB_CHECK_MSG(ra.ok() && sa.ok(), "division expansion on ill-typed AST");
      const size_t n = *ra;
      const size_t k = *sa;
      const size_t m = n - k;  // result arity
      std::vector<size_t> head(m);
      for (size_t i = 0; i < m; ++i) head[i] = i;
      // π_A(R)
      RAExprPtr pa = Project(head, r);
      // π_A(R) × S  (columns 0..m-1 from pa, m..n-1 from S)
      RAExprPtr cross = Product(pa, s);
      // (π_A(R) × S) − R
      RAExprPtr missing = Diff(cross, r);
      // π_A(...)
      RAExprPtr bad = Project(head, missing);
      // π_A(R) − bad
      return Diff(pa, bad);
    }
  }
  return e;
}

namespace {

void CollectPredicateConstants(const Predicate& p, std::vector<Value>* out) {
  for (const Term* t : {&p.lhs(), &p.rhs()}) {
    if (t->kind == Term::Kind::kConst) out->push_back(t->constant);
  }
  if (p.left() != nullptr) CollectPredicateConstants(*p.left(), out);
  if (p.right() != nullptr) CollectPredicateConstants(*p.right(), out);
}

}  // namespace

void CollectSelectionConstants(const RAExprPtr& e, std::vector<Value>* out) {
  if (e == nullptr) return;
  if (e->kind() == RAExpr::Kind::kSelect) {
    CollectPredicateConstants(*e->predicate(), out);
  }
  CollectSelectionConstants(e->left(), out);
  CollectSelectionConstants(e->right(), out);
}

}  // namespace incdb
