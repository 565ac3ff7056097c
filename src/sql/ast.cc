#include "sql/ast.h"

#include "util/strings.h"

namespace incdb {

std::string SqlOperand::ToString() const {
  if (kind == Kind::kLiteral) return literal.ToString();
  if (table.empty()) return column;
  return table + "." + column;
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

std::string SqlSelectItem::ToString() const {
  if (agg == AggFunc::kNone) return operand.ToString();
  if (agg == AggFunc::kCountStar) return "COUNT(*)";
  return std::string(AggFuncName(agg)) + "(" + operand.ToString() + ")";
}

bool SqlSelect::HasAggregates() const {
  for (const SqlSelectItem& item : items) {
    if (item.is_aggregate()) return true;
  }
  return false;
}

std::string SqlCondition::ToString() const {
  switch (kind) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCmp:
      return lhs.ToString() + " " + CmpOpSymbol(op) + " " + rhs.ToString();
    case Kind::kAnd:
      return "(" + left->ToString() + " AND " + right->ToString() + ")";
    case Kind::kOr:
      return "(" + left->ToString() + " OR " + right->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + left->ToString() + ")";
    case Kind::kIn:
      return lhs.ToString() + (negated ? " NOT IN (" : " IN (") +
             subquery->ToString() + ")";
    case Kind::kExists:
      return "EXISTS (" + subquery->ToString() + ")";
    case Kind::kIsNull:
      return lhs.ToString() + (negated ? " IS NOT NULL" : " IS NULL");
  }
  return "?";
}

std::string SqlTableRef::ToString() const {
  if (alias.empty() || alias == table) return table;
  return table + " " + alias;
}

std::string SqlSelect::ToString() const {
  std::string s = "SELECT ";
  if (distinct) s += "DISTINCT ";
  if (select_star) {
    s += "*";
  } else {
    std::vector<std::string> parts;
    for (const SqlSelectItem& o : items) parts.push_back(o.ToString());
    s += Join(parts, ", ");
  }
  s += " FROM ";
  std::vector<std::string> froms;
  for (const SqlTableRef& t : from) froms.push_back(t.ToString());
  s += Join(froms, ", ");
  if (where != nullptr) s += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    std::vector<std::string> gs;
    for (const SqlOperand& g : group_by) gs.push_back(g.ToString());
    s += " GROUP BY " + Join(gs, ", ");
  }
  return s;
}

std::string SqlQuery::ToString() const {
  std::vector<std::string> parts;
  for (const SqlSelect& sel : selects) parts.push_back(sel.ToString());
  return Join(parts, " UNION ");
}

}  // namespace incdb
