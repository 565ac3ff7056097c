#include "algebra/classify.h"

#include <vector>

#include "core/valuation.h"

namespace incdb {

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kPositive:
      return "positive";
    case QueryClass::kRAcwa:
      return "RA_cwa";
    case QueryClass::kFullRA:
      return "full_RA";
  }
  return "?";
}

bool IsPositive(const RAExprPtr& e) {
  switch (e->kind()) {
    case RAExpr::Kind::kScan:
      return true;
    case RAExpr::Kind::kConstRel:
      // A literal without nulls is a constant UCQ body; with nulls it still
      // evaluates monotonically, so we admit it.
      return true;
    case RAExpr::Kind::kDelta:
      // Δ is definable in positive RA over the active domain.
      return true;
    case RAExpr::Kind::kSelect:
      return e->predicate()->IsPositive() && IsPositive(e->left());
    case RAExpr::Kind::kProject:
      return IsPositive(e->left());
    case RAExpr::Kind::kProduct:
    case RAExpr::Kind::kUnion:
    case RAExpr::Kind::kIntersect:
      return IsPositive(e->left()) && IsPositive(e->right());
    case RAExpr::Kind::kDiff:
    case RAExpr::Kind::kDivide:
      return false;
  }
  return false;
}

bool IsDeltaPiTimesUnion(const RAExprPtr& e) {
  switch (e->kind()) {
    case RAExpr::Kind::kScan:
    case RAExpr::Kind::kDelta:
      return true;
    case RAExpr::Kind::kProject:
      return IsDeltaPiTimesUnion(e->left());
    case RAExpr::Kind::kProduct:
    case RAExpr::Kind::kUnion:
      return IsDeltaPiTimesUnion(e->left()) && IsDeltaPiTimesUnion(e->right());
    default:
      return false;
  }
}

bool IsRAcwa(const RAExprPtr& e) {
  switch (e->kind()) {
    case RAExpr::Kind::kScan:
    case RAExpr::Kind::kConstRel:
    case RAExpr::Kind::kDelta:
      return true;
    case RAExpr::Kind::kSelect:
      return e->predicate()->IsPositive() && IsRAcwa(e->left());
    case RAExpr::Kind::kProject:
      return IsRAcwa(e->left());
    case RAExpr::Kind::kProduct:
    case RAExpr::Kind::kUnion:
    case RAExpr::Kind::kIntersect:
      return IsRAcwa(e->left()) && IsRAcwa(e->right());
    case RAExpr::Kind::kDivide:
      return IsRAcwa(e->left()) && IsDeltaPiTimesUnion(e->right());
    case RAExpr::Kind::kDiff:
      return false;
  }
  return false;
}

QueryClass Classify(const RAExprPtr& e) {
  if (IsPositive(e)) return QueryClass::kPositive;
  if (IsRAcwa(e)) return QueryClass::kRAcwa;
  return QueryClass::kFullRA;
}

bool LiteralHoldsNull(const RAExprPtr& e) {
  if (e == nullptr) return false;
  if (e->kind() == RAExpr::Kind::kConstRel) {
    for (const Tuple& t : e->literal().tuples()) {
      if (t.HasNull()) return true;
    }
  }
  return LiteralHoldsNull(e->left()) || LiteralHoldsNull(e->right());
}

std::optional<Value> SelectionNull(const RAExprPtr& e) {
  std::vector<Value> constants;
  CollectSelectionConstants(e, &constants);
  for (const Value& v : constants) {
    if (v.is_null()) return v;
  }
  return std::nullopt;
}

bool NaiveEvaluationWorks(const RAExprPtr& e, WorldSemantics semantics) {
  if (LiteralHoldsNull(e) || SelectionNull(e).has_value()) return false;
  const QueryClass c = Classify(e);
  switch (semantics) {
    case WorldSemantics::kOpenWorld:
      // UCQs only; this is optimal for FO under OWA [51].
      return c == QueryClass::kPositive;
    case WorldSemantics::kClosedWorld:
      // Pos∀G = RA_cwa [32], which subsumes the positive fragment.
      return c == QueryClass::kPositive || c == QueryClass::kRAcwa;
    case WorldSemantics::kWeakClosedWorld:
      // Positive FO (no universal guards); positive algebra is safe.
      return c == QueryClass::kPositive;
  }
  return false;
}

}  // namespace incdb
