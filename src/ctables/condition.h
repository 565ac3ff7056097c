// Conditions for conditional tables: Boolean combinations of equalities
// x = y with x, y ∈ Const ∪ Null (paper, Section 2).
//
// Factories perform local constant folding (5 = 5 ↦ true, true ∧ c ↦ c, …)
// so condition trees stay as small as the algebra allows. Satisfiability
// over the *infinite* constant domain is decided exactly by enumerating
// assignments of the condition's nulls into its constants plus one fresh
// constant per null — enough fresh values to realize every equality type.

#ifndef INCDB_CTABLES_CONDITION_H_
#define INCDB_CTABLES_CONDITION_H_

#include <memory>
#include <set>
#include <string>

#include "core/valuation.h"

namespace incdb {

class Condition;
/// Shared, immutable condition node.
///
/// `Condition::True()` and `Condition::False()` have no owner: each is an
/// aliasing pointer with an empty control block to one immortal node. Nearly
/// every lifted row carries `true`, so with an owner every copy and release
/// in every query would be an atomic read-modify-write on one cache line
/// shared by all cores; owner-less, they cost a plain pointer copy. Hence:
/// compare conditions by `get()` (or `IsTrue()` / `IsFalse()`), never by
/// ownership; `use_count()` is 0 for the constants; and never hold a
/// condition through a `std::weak_ptr`, which would see a constant as
/// expired.
using ConditionPtr = std::shared_ptr<const Condition>;

/// Immutable condition AST node.
class Condition {
 public:
  enum class Kind { kTrue, kFalse, kEq, kAnd, kOr, kNot };

  Kind kind() const { return kind_; }
  const Value& lhs() const { return lhs_; }
  const Value& rhs() const { return rhs_; }
  const ConditionPtr& left() const { return left_; }
  const ConditionPtr& right() const { return right_; }

  bool IsTrue() const { return kind_ == Kind::kTrue; }
  bool IsFalse() const { return kind_ == Kind::kFalse; }

  /// Number of AST nodes (condition-complexity metric for bench E5).
  size_t Size() const;

  /// Nulls mentioned anywhere in the condition.
  void CollectNulls(std::set<NullId>* out) const;
  /// Constants mentioned anywhere in the condition.
  void CollectConstants(std::set<Value>* out) const;

  /// Evaluates under a valuation that binds every null of the condition.
  bool EvalUnder(const Valuation& v) const;

  std::string ToString() const;

  // Factories (with folding). True() and False() return owner-less
  // pointers to immortal nodes (see ConditionPtr).
  static ConditionPtr True();
  static ConditionPtr False();
  static ConditionPtr Eq(Value a, Value b);
  static ConditionPtr Neq(Value a, Value b);
  static ConditionPtr And(ConditionPtr a, ConditionPtr b);
  static ConditionPtr Or(ConditionPtr a, ConditionPtr b);
  static ConditionPtr Not(ConditionPtr a);

 private:
  explicit Condition(Kind kind) : kind_(kind) {}

  Kind kind_;
  Value lhs_;
  Value rhs_;
  ConditionPtr left_;
  ConditionPtr right_;
};

/// Exact satisfiability over the infinite constant domain: the value-class
/// search of SatisfiableOverDomain (ctables/cond_arena.h), without a branch
/// budget, over the condition's constants plus one fresh constant per
/// null, which realizes every equality type.
bool IsSatisfiable(const ConditionPtr& c);

}  // namespace incdb

#endif  // INCDB_CTABLES_CONDITION_H_
