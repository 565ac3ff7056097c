#include "ctables/condition.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ctables/cond_arena.h"

namespace incdb {

size_t Condition::Size() const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kEq:
      return 1;
    case Kind::kNot:
      return 1 + left_->Size();
    case Kind::kAnd:
    case Kind::kOr:
      return 1 + left_->Size() + right_->Size();
  }
  return 1;
}

void Condition::CollectNulls(std::set<NullId>* out) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return;
    case Kind::kEq:
      if (lhs_.is_null()) out->insert(lhs_.null_id());
      if (rhs_.is_null()) out->insert(rhs_.null_id());
      return;
    case Kind::kNot:
      left_->CollectNulls(out);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      left_->CollectNulls(out);
      right_->CollectNulls(out);
      return;
  }
}

void Condition::CollectConstants(std::set<Value>* out) const {
  switch (kind_) {
    case Kind::kTrue:
    case Kind::kFalse:
      return;
    case Kind::kEq:
      if (lhs_.is_const()) out->insert(lhs_);
      if (rhs_.is_const()) out->insert(rhs_);
      return;
    case Kind::kNot:
      left_->CollectConstants(out);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      left_->CollectConstants(out);
      right_->CollectConstants(out);
      return;
  }
}

bool Condition::EvalUnder(const Valuation& v) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kEq: {
      const Value a = v.Apply(lhs_);
      const Value b = v.Apply(rhs_);
      INCDB_CHECK_MSG(a.is_const() && b.is_const(),
                      "condition evaluated under a partial valuation");
      return a == b;
    }
    case Kind::kNot:
      return !left_->EvalUnder(v);
    case Kind::kAnd:
      return left_->EvalUnder(v) && right_->EvalUnder(v);
    case Kind::kOr:
      return left_->EvalUnder(v) || right_->EvalUnder(v);
  }
  return false;
}

std::string Condition::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kEq:
      return lhs_.ToString() + " = " + rhs_.ToString();
    case Kind::kNot:
      return "~(" + left_->ToString() + ")";
    case Kind::kAnd:
      return "(" + left_->ToString() + " & " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " | " + right_->ToString() + ")";
  }
  return "?";
}

// Owner-less pointers to immortal nodes: see ConditionPtr in condition.h.
ConditionPtr Condition::True() {
  static const Condition* const kTrue = new Condition(Kind::kTrue);
  return ConditionPtr(ConditionPtr(), kTrue);
}

ConditionPtr Condition::False() {
  static const Condition* const kFalse = new Condition(Kind::kFalse);
  return ConditionPtr(ConditionPtr(), kFalse);
}

ConditionPtr Condition::Eq(Value a, Value b) {
  if (a == b) return True();
  if (a.is_const() && b.is_const()) return False();  // distinct constants
  auto* c = new Condition(Kind::kEq);
  // Canonical order to aid structural sharing.
  if (b < a) std::swap(a, b);
  c->lhs_ = std::move(a);
  c->rhs_ = std::move(b);
  return ConditionPtr(c);
}

ConditionPtr Condition::Neq(Value a, Value b) {
  return Not(Eq(std::move(a), std::move(b)));
}

ConditionPtr Condition::And(ConditionPtr a, ConditionPtr b) {
  if (a->IsFalse() || b->IsFalse()) return False();
  if (a->IsTrue()) return b;
  if (b->IsTrue()) return a;
  auto* c = new Condition(Kind::kAnd);
  c->left_ = std::move(a);
  c->right_ = std::move(b);
  return ConditionPtr(c);
}

ConditionPtr Condition::Or(ConditionPtr a, ConditionPtr b) {
  if (a->IsTrue() || b->IsTrue()) return True();
  if (a->IsFalse()) return b;
  if (b->IsFalse()) return a;
  auto* c = new Condition(Kind::kOr);
  c->left_ = std::move(a);
  c->right_ = std::move(b);
  return ConditionPtr(c);
}

ConditionPtr Condition::Not(ConditionPtr a) {
  if (a->IsTrue()) return False();
  if (a->IsFalse()) return True();
  if (a->kind() == Kind::kNot) return a->left();  // ¬¬c ↦ c
  auto* c = new Condition(Kind::kNot);
  c->left_ = std::move(a);
  return ConditionPtr(c);
}

bool IsSatisfiable(const ConditionPtr& c) {
  if (c->IsTrue()) return true;
  if (c->IsFalse()) return false;
  std::set<NullId> nulls;
  c->CollectNulls(&nulls);
  std::set<Value> constants;
  c->CollectConstants(&constants);
  std::vector<Value> domain(constants.begin(), constants.end());
  // One fresh constant per null suffices to realize any equality type.
  int64_t base = 0;
  for (const Value& v : domain) {
    if (v.is_int()) base = std::max(base, v.as_int());
  }
  for (size_t i = 1; i <= nulls.size(); ++i) {
    domain.push_back(Value::Int(base + static_cast<int64_t>(i)));
  }
  return SatisfiableOverDomain(c, domain, UINT64_MAX).value();
}

}  // namespace incdb
